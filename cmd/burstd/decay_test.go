package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"histburst/internal/segstore"
)

func TestParseDecayTiers(t *testing.T) {
	got, err := parseDecayTiers(" 86400:8:3600 , 864000:32:43200:4 ")
	if err != nil {
		t.Fatal(err)
	}
	want := []segstore.DecayTier{
		{Age: 86400, Gamma: 8, Res: 3600},
		{Age: 864000, Gamma: 32, Res: 43200, W: 4},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tier %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	if tiers, err := parseDecayTiers("  "); err != nil || tiers != nil {
		t.Fatalf("blank spec: %+v, %v, want nil, nil", tiers, err)
	}
	for _, bad := range []string{
		"86400",            // too few fields
		"86400:8",          // too few fields
		"1:2:3:4:5",        // too many fields
		"day:8:3600",       // non-numeric age
		"86400:wide:3600",  // non-numeric gamma
		"86400:8:hour",     // non-numeric res
		"86400:8:3600:w8",  // non-numeric width
		"86400:8:3600,bad", // second tier malformed
	} {
		if _, err := parseDecayTiers(bad); err == nil {
			t.Fatalf("parseDecayTiers(%q) accepted a malformed spec", bad)
		}
	}
}

// TestDecayTiersEndToEnd drives -decay-tiers through the server: ingest far
// past the tier age, wait for the compactor to re-summarize, and read the
// per-tier footprint back from /v1/segments and /healthz.
func TestDecayTiersEndToEnd(t *testing.T) {
	tiers, err := parseDecayTiers("1000:8:100:136")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(serverOpts{
		K: 64, Gamma: 2, Seed: 1, SnapDir: t.TempDir(),
		SealEvents: 8, Fanout: 2, DecayTiers: tiers, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = srv.store.Close() })

	// 200 elements at 10-unit spacing: everything older than 1000 behind
	// the frontier (t=1990) becomes eligible for the single decay tier.
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"event":%d,"time":%d}`, i%8, i*10)
	}
	if code, out := postAppend(t, ts.URL, sb.String()); code != 200 {
		t.Fatalf("append: code=%d out=%v", code, out)
	}
	// The tier table counts sealed segments only. Seal the whole stream
	// first: while later heads are still frozen, every sealed segment may
	// already have decayed, and the table would show tier 1 alone.
	if err := srv.store.Checkpoint(true); err != nil {
		t.Fatal(err)
	}

	type segsBody struct {
		Tiers []segstore.TierStats `json:"tiers"`
	}
	deadline := time.Now().Add(5 * time.Second)
	var body segsBody
	for {
		resp, err := http.Get(ts.URL + "/v1/segments")
		if err != nil {
			t.Fatal(err)
		}
		body = segsBody{}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(body.Tiers) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no decayed tier appeared: %+v", body.Tiers)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var deep *segstore.TierStats
	for i := range body.Tiers {
		if body.Tiers[i].Tier == 1 {
			deep = &body.Tiers[i]
		}
	}
	if deep == nil {
		t.Fatalf("tier table %+v lacks the configured tier 1", body.Tiers)
	}
	if deep.Gamma != 8 || deep.W != 136 || deep.Res != 100 {
		t.Fatalf("tier 1 fidelity %+v, want γ=8 w=136 res=100", *deep)
	}
	if deep.Segments == 0 || deep.Bytes == 0 {
		t.Fatalf("tier 1 reports no footprint: %+v", *deep)
	}

	// /healthz mirrors the same per-tier summary.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Tiers []segstore.TierStats `json:"tiers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if len(health.Tiers) < 2 {
		t.Fatalf("/healthz tiers %+v, want the decayed ladder", health.Tiers)
	}
}
