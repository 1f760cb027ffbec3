package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"histburst"
	"histburst/internal/wire"
)

// synthInput renders a message stream with a #fire burst at t in
// [5000, 5300).
func synthInput() string {
	var b strings.Builder
	for tm := int64(0); tm < 10_000; tm += 5 {
		fmt.Fprintf(&b, "%d routine chatter about #weather today\n", tm)
		if tm >= 5000 && tm < 5300 {
			for j := 0; j < 6; j++ {
				fmt.Fprintf(&b, "%d breaking: #fire downtown!\n", tm)
			}
		}
	}
	return b.String()
}

func TestProcessReportsBurst(t *testing.T) {
	var out strings.Builder
	err := process(strings.NewReader(synthInput()), &out, 1024, 600, 600, 3, 2, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "#fire") {
		t.Fatalf("burst report missing #fire:\n%s", s)
	}
	if !strings.Contains(s, "done:") {
		t.Fatalf("no final summary:\n%s", s)
	}
	// Reports were emitted at the cadence.
	if strings.Count(s, "top bursting") < 3 {
		t.Fatalf("expected periodic reports:\n%s", s)
	}
}

func TestProcessSkipsGarbageLines(t *testing.T) {
	input := "notanumber hello\n42\n100 no hashtags here\n200 #ok fine\n"
	var out strings.Builder
	if err := process(strings.NewReader(input), &out, 64, 10, 0, 2, 2, "", nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "4 lines, 3 skipped, 1 mentions") {
		t.Fatalf("accounting wrong:\n%s", out.String())
	}
}

func TestProcessSaveAndReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.hbsk")
	var out strings.Builder
	if err := process(strings.NewReader(synthInput()), &out, 1024, 600, 0, 3, 2, path, nil); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	det, err := histburst.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	// Event 0 is #weather (first hashtag seen), event 1 is #fire.
	b, err := det.Burstiness(1, 5299, 600)
	if err != nil {
		t.Fatal(err)
	}
	if b < 100 {
		t.Fatalf("reloaded sketch lost the burst: b = %v", b)
	}
}

func TestProcessSkipsAheadOverGaps(t *testing.T) {
	// A long silent gap must produce one catch-up report, not one per
	// elapsed interval.
	input := "0 hello #a\n1000000 again #a\n"
	var out strings.Builder
	if err := process(strings.NewReader(input), &out, 64, 10, 10, 2, 2, "", nil); err != nil {
		t.Fatal(err)
	}
	// One report at the latest passed boundary plus the final one.
	if n := strings.Count(out.String(), "top bursting"); n != 2 {
		t.Fatalf("expected 2 reports, got %d:\n%s", n, out.String())
	}
}

func TestProcessValidation(t *testing.T) {
	if err := process(strings.NewReader(""), &strings.Builder{}, 8, 10, 0, 0, 2, "", nil); err == nil {
		t.Error("top=0 accepted")
	}
	if err := process(strings.NewReader(""), &strings.Builder{}, 8, 0, 0, 3, 2, "", nil); err == nil {
		t.Error("tau=0 accepted")
	}
	// Empty input is fine.
	var out strings.Builder
	if err := process(strings.NewReader(""), &out, 8, 10, 0, 3, 2, "", nil); err != nil {
		t.Fatal(err)
	}
	// -forward-batch meets the append bound both transports apply before any
	// input is read: the bound itself is fine, one more is refused.
	unused := "http://127.0.0.1:1/v1/append"
	if err := process(strings.NewReader(""), &strings.Builder{}, 8, 10, 0, 3, 2, "", newForwarder(unused, wire.MaxAppendElems, nil)); err != nil {
		t.Errorf("-forward-batch %d: %v", wire.MaxAppendElems, err)
	}
	want := fmt.Sprintf("-forward-batch: batch of %d elements exceeds the %d-element limit", wire.MaxAppendElems+1, wire.MaxAppendElems)
	if err := process(strings.NewReader(""), &strings.Builder{}, 8, 10, 0, 3, 2, "", newForwarder(unused, wire.MaxAppendElems+1, nil)); err == nil || err.Error() != want {
		t.Errorf("-forward-batch %d: %v, want %q", wire.MaxAppendElems+1, err, want)
	}
}
