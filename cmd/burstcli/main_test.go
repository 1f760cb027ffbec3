package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"histburst/internal/segstore"
	"histburst/internal/stream"
	"histburst/internal/subscribe"
	"histburst/internal/wire"
)

// writeStream writes s as a dataset file under t's temp dir.
func writeStream(t *testing.T, s stream.Stream) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.hbst")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := stream.Write(f, s); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeDataset creates a small dataset file with a planted burst on event 0.
func writeDataset(t *testing.T) string {
	t.Helper()
	var s stream.Stream
	for tm := int64(0); tm < 5000; tm++ {
		s = append(s, stream.Element{Event: 1, Time: tm})
		if tm >= 3000 && tm < 3200 {
			for j := 0; j < 5; j++ {
				s = append(s, stream.Element{Event: 0, Time: tm})
			}
		}
	}
	return writeStream(t, s)
}

// runOut runs one burstcli invocation and returns what it printed.
func runOut(args ...string) (string, error) {
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

func TestRunQueries(t *testing.T) {
	in := writeDataset(t)
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-point", "-e", "0", "-t", "3199", "-tau", "200"}, "b_0(3199) ≈ "},
		{[]string{"-times", "-e", "0", "-theta", "300", "-tau", "200"}, "["},
		{[]string{"-events", "-t", "3199", "-theta", "300", "-tau", "200"}, "event 0 "},
		{[]string{"-stats"}, "time span:      [0, 4999]"},
	} {
		out, err := runOut(append([]string{"-in", in, "-gamma", "2"}, c.args...)...)
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if !strings.Contains(out, c.want) {
			t.Fatalf("%v printed %q, want %q in it", c.args, out, c.want)
		}
	}
}

func TestRunSaveAndLoadSketch(t *testing.T) {
	in := writeDataset(t)
	sk := filepath.Join(t.TempDir(), "sk.hbsk")
	if _, err := runOut("-in", in, "-gamma", "2", "-save", sk); err != nil {
		t.Fatalf("save: %v", err)
	}
	if _, err := os.Stat(sk); err != nil {
		t.Fatalf("sketch file missing: %v", err)
	}
	// Query from the saved sketch without the dataset: the same answer.
	built, err := runOut("-in", in, "-gamma", "2", "-point", "-e", "0", "-t", "3199", "-tau", "200")
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := runOut("-sketch", sk, "-point", "-e", "0", "-t", "3199", "-tau", "200")
	if err != nil {
		t.Fatalf("query from sketch: %v", err)
	}
	if built != loaded {
		t.Fatalf("built %q, loaded %q", built, loaded)
	}
}

func TestRunValidation(t *testing.T) {
	in := writeDataset(t)
	for _, args := range [][]string{
		{"-point"},                              // no source
		{"-in", "/no/such/file", "-point"},      // missing dataset file
		{"-in", in, "-sketch", in, "-point"},    // two sources
		{"-in", in},                             // no query mode
		{"-in", in, "-point", "-tau", "-5"},     // negative τ
		{"-in", in, "-point", "-tau", "0"},      // zero τ
		{"-in", in, "-events", "-theta", "0"},   // zero θ
		{"-dir", t.TempDir(), "-save", "x"},     // -save of a store directory
		{"-dir", t.TempDir(), "-stats"},         // no store there
		{"-addr", "127.0.0.1:1", "-stats"},      // nothing listening
		{"-in", in, "-point", "-bogus", "flag"}, // unknown flag
	} {
		if _, err := runOut(args...); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// readOnlyBackend serves a store over HBP1 for queries only.
type readOnlyBackend struct{ st *segstore.Store }

func (b readOnlyBackend) Snapshot() *segstore.Snapshot { return b.st.Snapshot() }
func (b readOnlyBackend) Alerts() *subscribe.Hub       { return nil }
func (b readOnlyBackend) Ingest(stream.Stream) wire.IngestResult {
	return wire.IngestResult{Refused: wire.NackReadOnly, Message: "read-only"}
}
func (b readOnlyBackend) Stats() wire.Stats {
	sn := b.st.Snapshot()
	return wire.Stats{Elements: sn.N(), EventSpace: b.st.K(), MaxTime: sn.MaxTime(), Bytes: int64(sn.Bytes()), Segments: len(sn.Segments())}
}

// serveDir serves the store in dir over HBP1 on a loopback port until the
// test ends and returns its address.
func serveDir(t *testing.T, dir string) string {
	t.Helper()
	st, err := segstore.Open(dir, oneShot)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &wire.Server{Backend: readOnlyBackend{st}, Logf: t.Logf}
	done := make(chan struct{})
	go func() {
		srv.Serve(ln) //nolint:errcheck
		close(done)
	}()
	t.Cleanup(func() {
		srv.Close()
		ln.Close()
		<-done
		if err := st.Close(); err != nil {
			t.Error(err)
		}
	})
	return ln.Addr().String()
}

// TestBackendsAnswerAlike: a sketch file, a store sealed from the same
// stream, and a server over that store print the same answers — and -stats
// reports a real span on an epoch-scale stream, not [0, max]: the span
// locally and in a store directory, only the frontier over the wire.
func TestBackendsAnswerAlike(t *testing.T) {
	const origin = 1_700_000_000
	var s stream.Stream
	for tm := int64(origin); tm < origin+4000; tm++ {
		s = append(s, stream.Element{Event: uint64(tm % 8), Time: tm})
		if tm >= origin+3000 && tm < origin+3050 {
			for j := 0; j < 6; j++ {
				s = append(s, stream.Element{Event: 3, Time: tm})
			}
		}
	}
	in := writeStream(t, s)
	sk := filepath.Join(t.TempDir(), "s.hbsk")
	dir := filepath.Join(t.TempDir(), "arch")
	if _, err := runOut("-in", in, "-save", sk); err != nil {
		t.Fatal(err)
	}
	if _, err := runOut("seal", "-dir", dir, "-in", in, "-k", "8"); err != nil {
		t.Fatal(err)
	}
	queries := [][]string{
		{"-point", "-e", "3", "-t", "1700003049", "-tau", "50"},
		{"-point", "-e", "5", "-t", "1700001000"},
		{"-times", "-e", "3", "-theta", "100", "-tau", "50"},
		{"-events", "-t", "1700003049", "-theta", "100", "-tau", "50"},
	}
	answers := func(src ...string) []string {
		var outs []string
		for _, q := range queries {
			out, err := runOut(append(src, q...)...)
			if err != nil {
				t.Fatalf("%v %v: %v", src, q, err)
			}
			outs = append(outs, out)
		}
		return outs
	}
	want := answers("-sketch", sk)
	if !strings.Contains(want[3], "event 3 ") {
		t.Fatalf("planted burst not found: %q", want[3])
	}
	for _, src := range [][]string{{"-in", in}, {"-dir", dir}} {
		if got := answers(src...); strings.Join(got, "") != strings.Join(want, "") {
			t.Fatalf("%v answers\n%v\nwant (-sketch)\n%v", src, got, want)
		}
		out, err := runOut(append(src, "-stats")...)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "time span:      [1700000000, 1700003999]") {
			t.Fatalf("%v -stats:\n%s", src, out)
		}
	}

	addr := serveDir(t, dir)
	if got := answers("-addr", addr); strings.Join(got, "") != strings.Join(want, "") {
		t.Fatalf("-addr answers\n%v\nwant (-sketch)\n%v", got, want)
	}
	out, err := runOut("-addr", addr, "-stats")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "max time:       1700003999") || strings.Contains(out, "span") {
		t.Fatalf("-addr -stats:\n%s", out)
	}
}
