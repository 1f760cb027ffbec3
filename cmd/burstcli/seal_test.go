package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"histburst/internal/segstore"
	"histburst/internal/stream"
)

// periodStream covers [start, end) with a burst on event 3 in the middle
// when burst is set.
func periodStream(start, end int64, burst bool) stream.Stream {
	var s stream.Stream
	for tm := start; tm < end; tm++ {
		s = append(s, stream.Element{Event: uint64(tm % 8), Time: tm})
		if burst && tm >= (start+end)/2 && tm < (start+end)/2+50 {
			for j := 0; j < 6; j++ {
				s = append(s, stream.Element{Event: 3, Time: tm})
			}
		}
	}
	return s
}

// sealArgs seals with the configuration every period of these tests shares.
func sealArgs(dir, in string) []string {
	return []string{"seal", "-dir", dir, "-in", in, "-k", "8", "-gamma", "2", "-seed", "3"}
}

// sealTwoPeriods seals [0, 2000) and [2000, 4000) into a fresh directory
// under t's temp dir and returns it with the two streams.
func sealTwoPeriods(t *testing.T) (dir string, p1, p2 stream.Stream) {
	t.Helper()
	dir = filepath.Join(t.TempDir(), "arch")
	p1, p2 = periodStream(0, 2000, false), periodStream(2000, 4000, true)
	for i, p := range []stream.Stream{p1, p2} {
		if _, err := runOut(sealArgs(dir, writeStream(t, p))...); err != nil {
			t.Fatalf("seal %d: %v", i+1, err)
		}
	}
	return dir, p1, p2
}

func TestSealWorkflow(t *testing.T) {
	dir, _, _ := sealTwoPeriods(t)
	var all strings.Builder
	for _, args := range [][]string{
		{"-dir", dir, "-stats"},
		// Query inside the second period's burst.
		{"-dir", dir, "-point", "-e", "3", "-t", "3049", "-tau", "50"},
		{"-dir", dir, "-events", "-t", "3049", "-theta", "100", "-tau", "50"},
	} {
		out, err := runOut(args...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		all.WriteString(out)
	}
	s := all.String()
	if !strings.Contains(s, "segments:       2 (") || !strings.Contains(s, "time span:      [0, 3999]") {
		t.Fatalf("stats missing:\n%s", s)
	}
	if !strings.Contains(s, "event 3 ") {
		t.Fatalf("bursty event not reported:\n%s", s)
	}
}

// TestSealedDirIsAStoreDirectory: what seal writes is an ordinary store
// directory. Opened the way `burstd -snapshots dir` opens it, it answers
// bit-identically to a store fed the same stream directly, and an
// overlapping period is refused without touching it.
func TestSealedDirIsAStoreDirectory(t *testing.T) {
	dir, p1, p2 := sealTwoPeriods(t)

	direct, err := segstore.Open(filepath.Join(t.TempDir(), "direct"), segstore.Config{
		K: 8, Gamma: 2, Seed: 3, SealEvents: -1, CompactFanout: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close() //nolint:errcheck
	for _, p := range []stream.Stream{p1, p2} {
		if _, rej, err := direct.AppendBatch(p); err != nil || rej > 0 {
			t.Fatalf("AppendBatch: %d rejected, %v", rej, err)
		}
		if err := direct.Checkpoint(true); err != nil {
			t.Fatal(err)
		}
	}

	served, err := segstore.Open(dir, segstore.Config{})
	if err != nil {
		t.Fatalf("plain segstore.Open of the sealed directory: %v", err)
	}
	got, want := served.Snapshot(), direct.Snapshot()
	if got.N() != want.N() || len(got.Segments()) != 2 {
		t.Fatalf("sealed dir holds %d elements in %d segments, want %d in 2", got.N(), len(got.Segments()), want.N())
	}
	for tm := int64(0); tm < 4200; tm += 7 {
		for e := uint64(0); e < 8; e++ {
			g, err1 := got.Burstiness(e, tm, 50)
			w, err2 := want.Burstiness(e, tm, 50)
			if err1 != nil || err2 != nil || g != w {
				t.Fatalf("POINT e=%d t=%d: sealed %v (%v), direct %v (%v)", e, tm, g, err1, w, err2)
			}
		}
		g, err1 := got.BurstyEvents(tm, 100, 50)
		w, err2 := want.BurstyEvents(tm, 100, 50)
		if err1 != nil || err2 != nil || len(g) != len(w) {
			t.Fatalf("BURSTY-EVENT t=%d: sealed %v (%v), direct %v (%v)", tm, g, err1, w, err2)
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("BURSTY-EVENT t=%d: sealed %v, direct %v", tm, g, w)
			}
		}
	}
	gen, n := served.Generation(), served.N()
	if err := served.Close(); err != nil {
		t.Fatal(err)
	}

	// A third period reaching back into the second is refused whole.
	manifest := filepath.Join(dir, segstore.ManifestName)
	before, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	_, err = runOut(sealArgs(dir, writeStream(t, periodStream(3000, 5000, false)))...)
	if err == nil || !strings.Contains(err.Error(), "behind the store frontier") {
		t.Fatalf("overlapping period: err = %v, want a frontier refusal", err)
	}
	after, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("refused seal rewrote the manifest")
	}
	re, err := segstore.Open(dir, segstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close() //nolint:errcheck
	if re.Generation() != gen || re.N() != n {
		t.Fatalf("refused seal moved the store: generation %d→%d, elements %d→%d", gen, re.Generation(), n, re.N())
	}
}

func TestSealErrors(t *testing.T) {
	if _, err := runOut("seal", "-dir", filepath.Join(t.TempDir(), "x")); err == nil {
		t.Error("seal without -in accepted")
	}
	if _, err := runOut("bogus", "-dir", t.TempDir()); err == nil {
		t.Error("unknown command accepted")
	}
	// Read commands never create a store where there is none.
	missing := filepath.Join(t.TempDir(), "nowhere")
	if _, err := runOut("-dir", missing, "-stats"); err == nil {
		t.Error("-stats on a directory without a store accepted")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("-stats created %s", missing)
	}
	// A later seal must name the sketch configuration the first one pinned.
	dir, _, _ := sealTwoPeriods(t)
	in := writeStream(t, periodStream(4000, 4100, false))
	_, err := runOut("seal", "-dir", dir, "-in", in, "-k", "16", "-gamma", "2", "-seed", "3")
	if err == nil || !strings.Contains(err.Error(), "conflicts with existing store") {
		t.Errorf("seal with a conflicting -k: err = %v", err)
	}
}
