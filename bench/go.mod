module histburst/bench

go 1.22

require histburst v0.0.0

replace histburst => ../
