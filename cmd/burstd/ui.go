package main

import "net/http"

// handleUI serves the embedded single-page timeline view — the repository's
// analogue of the estorm.org demo: a burst-activity chart over the stream's
// horizon plus a table of the top bursting events at the selected instant.
//
// Visual notes: single data series (burst magnitude), so it wears
// categorical slot 1 of the validated reference palette (light #2a78d6 /
// dark #3987e5, CVD-checked as part of that palette); all text uses text
// tokens, never the series color; the table below is the accessible
// data view; bars carry native hover tooltips and click-to-select.
func (s *server) handleUI(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(uiPage)) //histburst:allow errdrop -- client went away; nothing to do about a failed HTML write
}

const uiPage = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>histburst — bursty events throughout history</title>
<style>
  .viz-root {
    --surface-1:      #fcfcfb;
    --text-primary:   #0b0b0b;
    --text-secondary: #52514e;
    --grid:           #e4e3df;
    --series-1:       #2a78d6;
  }
  @media (prefers-color-scheme: dark) {
    .viz-root {
      --surface-1:      #1a1a19;
      --text-primary:   #ffffff;
      --text-secondary: #c3c2b7;
      --grid:           #3a3936;
      --series-1:       #3987e5;
    }
  }
  body { margin: 0; }
  .viz-root {
    font: 14px/1.45 system-ui, sans-serif;
    background: var(--surface-1);
    color: var(--text-primary);
    min-height: 100vh;
    padding: 24px;
    box-sizing: border-box;
  }
  h1 { font-size: 18px; margin: 0 0 2px; }
  .sub { color: var(--text-secondary); margin: 0 0 20px; }
  .controls { display: flex; gap: 12px; align-items: center; margin-bottom: 12px; flex-wrap: wrap; }
  .controls label { color: var(--text-secondary); }
  .controls input {
    width: 90px; padding: 4px 6px; border: 1px solid var(--grid);
    border-radius: 6px; background: var(--surface-1); color: var(--text-primary);
  }
  svg { display: block; width: 100%; height: 220px; }
  .bar { fill: var(--series-1); cursor: pointer; }
  .bar.selected { stroke: var(--text-primary); stroke-width: 1.5; }
  .gridline { stroke: var(--grid); stroke-width: 1; }
  .axis-label { fill: var(--text-secondary); font-size: 11px; }
  table { border-collapse: collapse; margin-top: 16px; min-width: 420px; }
  th { text-align: left; color: var(--text-secondary); font-weight: 500; }
  th, td { padding: 6px 14px 6px 0; border-bottom: 1px solid var(--grid); }
  td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
  .mark { display: inline-block; width: 10px; height: 10px; border-radius: 3px;
          background: var(--series-1); margin-right: 8px; vertical-align: baseline; }
  .hint { color: var(--text-secondary); margin-top: 8px; }
</style>
</head>
<body>
<div class="viz-root">
  <h1>Bursty events throughout history</h1>
  <p class="sub">Peak burstiness per time step — click a bar to list the top bursting events at that instant.</p>
  <div class="controls">
    <label>burst span τ <input id="tau" type="number" value="86400" min="1"></label>
    <label>top k <input id="k" type="number" value="8" min="1" max="50"></label>
    <button id="reload">reload</button>
  </div>
  <svg id="chart" role="img" aria-label="Peak burstiness per time step"></svg>
  <div id="detail"></div>
  <p class="hint" id="status">loading…</p>
</div>
<script>
"use strict";
const STEPS = 48;
const $ = id => document.getElementById(id);

async function getJSON(url) {
  const r = await fetch(url);
  if (!r.ok) throw new Error(url + ": " + r.status);
  return r.json();
}

async function load() {
  const tau = +$("tau").value, k = +$("k").value;
  $("status").textContent = "querying " + STEPS + " instants…";
  const stats = await getJSON("/v1/stats");
  const horizon = stats.maxTime;
  const times = Array.from({length: STEPS}, (_, i) =>
    Math.round(horizon * (i + 1) / STEPS));
  const tops = await Promise.all(times.map(t =>
    getJSON("/v1/top?t=" + t + "&k=" + k + "&tau=" + tau)));
  const series = tops.map((r, i) => ({
    t: times[i],
    peak: Math.max(0, ...(r.events || []).map(e => e.burstiness)),
    events: r.events || [],
  }));
  draw(series, tau);
  $("status").textContent = stats.elements + " elements summarized in " +
    (stats.bytes / 1024).toFixed(0) + " KB (id space " + stats.eventSpace + ")";
}

function draw(series, tau) {
  const svg = $("chart");
  const W = svg.clientWidth || 800, H = 220, padL = 56, padB = 22, padT = 8;
  const max = Math.max(1, ...series.map(d => d.peak));
  const bw = (W - padL) / series.length;
  let out = "";
  for (let g = 0; g <= 4; g++) {
    const y = padT + (H - padB - padT) * g / 4;
    const v = Math.round(max * (1 - g / 4));
    out += '<line class="gridline" x1="' + padL + '" y1="' + y + '" x2="' + W + '" y2="' + y + '"/>' +
           '<text class="axis-label" x="' + (padL - 6) + '" y="' + (y + 4) + '" text-anchor="end">' + v + "</text>";
  }
  series.forEach((d, i) => {
    const h = Math.max(1, (H - padB - padT) * d.peak / max);
    const x = padL + i * bw + 1, y = H - padB - h;
    out += '<rect class="bar" data-i="' + i + '" x="' + x + '" y="' + y +
      '" width="' + Math.max(1, bw - 2) + '" height="' + h + '" rx="2">' +
      "<title>t=" + d.t + "  peak b=" + d.peak.toFixed(0) + "</title></rect>";
    if (i % 8 === 0) {
      out += '<text class="axis-label" x="' + x + '" y="' + (H - 6) + '">t=' + d.t + "</text>";
    }
  });
  svg.setAttribute("viewBox", "0 0 " + W + " " + H);
  svg.innerHTML = out;
  svg.querySelectorAll(".bar").forEach(b =>
    b.addEventListener("click", () => select(series, +b.dataset.i, tau)));
  select(series, series.reduce((a, d, i) => d.peak > series[a].peak ? i : a, 0), tau);
}

function select(series, i, tau) {
  document.querySelectorAll(".bar").forEach((b, j) =>
    b.classList.toggle("selected", j === i));
  const d = series[i];
  let html = "<table><thead><tr><th>event</th><th class=num>burstiness (t=" +
    d.t + ", τ=" + tau + ")</th></tr></thead><tbody>";
  if (!d.events.length) html += '<tr><td colspan="2">no bursting events</td></tr>';
  for (const e of d.events) {
    html += '<tr><td><span class="mark"></span>event ' + e.event +
      '</td><td class="num">' + e.burstiness.toFixed(0) + "</td></tr>";
  }
  $("detail").innerHTML = html + "</tbody></table>";
}

$("reload").addEventListener("click", () => load().catch(err => {
  $("status").textContent = String(err);
}));
load().catch(err => { $("status").textContent = String(err); });
</script>
</body>
</html>
`
