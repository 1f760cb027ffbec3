package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"text/tabwriter"

	"histburst/internal/metrics"
	"histburst/internal/segstore"
)

// runSegmentsCmd implements `burstcli segments -http http://host:port`: it
// fetches the server's segment directory and prints the decay-tier table —
// how much history each fidelity tier holds in how many bytes, and the
// γ/resolution actually in force there — plus the per-segment listing.
func runSegmentsCmd(argv []string) error {
	fs := flag.NewFlagSet("burstcli segments", flag.ContinueOnError)
	var (
		baseURL = fs.String("http", "", "burstd base URL (JSON transport)")
		full    = fs.Bool("full", false, "also list every sealed segment")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *baseURL == "" {
		return fmt.Errorf("segments: pass -http")
	}
	base := strings.TrimRight(*baseURL, "/")

	resp, err := http.Get(base + "/v1/segments")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("segments: %s", resp.Status)
	}
	var body struct {
		Generation  uint64                 `json:"generation"`
		Segments    []segstore.SegmentInfo `json:"segments"`
		Tiers       []segstore.TierStats   `json:"tiers"`
		Quarantined []segstore.SegmentInfo `json:"quarantined"`
		ReadOnly    bool                   `json:"readOnly"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return fmt.Errorf("segments: decode: %w", err)
	}

	resident := 0
	for _, g := range body.Segments {
		if g.Resident {
			resident++
		}
	}
	fmt.Printf("generation %d, %d segments (%d quarantined), %d resident\n",
		body.Generation, len(body.Segments), len(body.Quarantined), resident)
	if body.ReadOnly {
		fmt.Println("mode: read-only (degraded)")
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "tier\tsegs\telements\tbytes\tγ\tw\tres\tspan\t")
	for _, ts := range body.Tiers {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%s\t%g\t%d\t%d\t[%d, %d]\t\n",
			ts.Tier, ts.Segments, ts.Elements, metrics.HumanBytes(ts.Bytes),
			ts.Gamma, ts.W, ts.Res, ts.MinT, ts.MaxT)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if *full {
		for _, g := range body.Segments {
			state := "verified, not yet decoded"
			if g.Resident {
				state = "resident"
			}
			fmt.Printf("segment %d: tier %d, [%d, %d], %d elements, %s (%s)\n",
				g.ID, g.Tier, g.Start, g.End, g.Elements, metrics.HumanBytes(g.Bytes), state)
		}
	}
	return nil
}
