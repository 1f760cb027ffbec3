// Command burststream ingests a live message stream from stdin — the
// paper's information stream M — maps each message to event ids via its
// hashtags (the mapping h of Section II-A), and reports the top bursting
// events at a fixed cadence of stream time.
//
// Input: one message per line, "<unix-timestamp> <text with #hashtags>".
// Lines without a parsable timestamp or without hashtags are counted and
// skipped.
//
//	burstgen -dataset olympicrio -n 100000 -out rio.hbst   # or any source
//	... | burststream -tau 3600 -report 21600 -top 5
//
// At end of input the summary can be persisted with -save for later
// burstcli/burstd querying. With -forward the mapped elements are also
// replayed to a running burstd in batches, with jittered exponential
// retry/backoff that honours the server's Retry-After hint, so the replay
// survives server restarts and load shedding. An http:// URL replays via
// POST /v1/append; an hbp://host:port address streams over the HBP1 wire
// protocol, where retries resend only the unacknowledged suffix of a batch.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"histburst"
	"histburst/internal/metrics"
	"histburst/internal/textmap"
	"histburst/internal/wire"
)

func main() {
	var (
		k      = flag.Uint64("k", 4096, "event-id space (max distinct hashtags tracked)")
		tau    = flag.Int64("tau", 3600, "burst span τ for reports")
		report = flag.Int64("report", 21600, "report cadence in stream-time units (0 = only final)")
		top    = flag.Int("top", 5, "events per report")
		gamma  = flag.Float64("gamma", 4, "PBE-2 error cap γ")
		save   = flag.String("save", "", "persist the final sketch to this file")
		fwdURL = flag.String("forward", "", "replay elements to this burstd: an /v1/append URL or hbp://host:port (retries with backoff)")
		fwdN   = flag.Int("forward-batch", 256, "elements per forwarded append request")
	)
	flag.Parse()
	var fwd *forwarder
	if *fwdURL != "" {
		if addr, ok := strings.CutPrefix(*fwdURL, "hbp://"); ok {
			fwd = newWireForwarder(addr, *fwdN)
		} else {
			fwd = newForwarder(*fwdURL, *fwdN, nil)
		}
		defer fwd.close()
	}
	if err := process(os.Stdin, os.Stdout, *k, *tau, *report, *top, *gamma, *save, fwd); err != nil {
		fmt.Fprintln(os.Stderr, "burststream:", err)
		os.Exit(1)
	}
}

func process(r io.Reader, w io.Writer, k uint64, tau, report int64, top int, gamma float64, save string, fwd *forwarder) error {
	det, err := histburst.New(k, histburst.WithPBE2(gamma))
	if err != nil {
		return err
	}
	// A report is a top-k query; an empty detector answers one, so -top and
	// -tau meet the read path's own checks before any input is read.
	if _, _, err := wire.AnswerTop(det, 0, int64(top), tau); err != nil {
		return fmt.Errorf("-top/-tau: %w", err)
	}
	if fwd != nil {
		if err := wire.CheckAppendLen(uint64(fwd.size)); err != nil {
			return fmt.Errorf("-forward-batch: %w", err)
		}
	}
	mapper := textmap.NewHashtagMapper(k)

	var (
		lines, skipped int64
		nextReport     int64
		started        bool
	)
	emit := func(at int64) error {
		hits, _, err := wire.AnswerTop(det, at, int64(top), tau)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "t=%d top bursting (τ=%d):\n", at, tau)
		vocab := mapper.Vocabulary()
		for _, h := range hits {
			if h.Burstiness <= 0 {
				continue
			}
			name := fmt.Sprintf("event %d", h.Event)
			if h.Event < uint64(len(vocab)) {
				name = "#" + vocab[h.Event]
			}
			fmt.Fprintf(w, "  %-24s b ≈ %.0f\n", name, h.Burstiness)
		}
		return nil
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		lines++
		line := sc.Text()
		sp := strings.IndexByte(line, ' ')
		if sp <= 0 {
			skipped++
			continue
		}
		ts, err := strconv.ParseInt(line[:sp], 10, 64)
		if err != nil {
			skipped++
			continue
		}
		ids := mapper.Map(line[sp+1:])
		if len(ids) == 0 {
			skipped++
			continue
		}
		for _, id := range ids {
			det.Append(id, ts)
			if fwd != nil {
				if err := fwd.add(id, ts); err != nil {
					return err
				}
			}
		}
		if !started {
			started = true
			if report > 0 {
				nextReport = ts + report
			}
		}
		if report > 0 && ts >= nextReport {
			// Emit the boundary just passed; across a long silent gap only
			// the latest boundary is interesting, so skip ahead rather than
			// replaying one report per elapsed interval.
			latest := ts - (ts-nextReport)%report
			if err := emit(latest); err != nil {
				return err
			}
			nextReport = latest + report
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if fwd != nil {
		if err := fwd.flush(); err != nil {
			return err
		}
		sent, posts, retried := fwd.totals()
		fmt.Fprintf(w, "forwarded %d elements in %d requests (%d retries)\n",
			sent, posts, retried)
	}
	det.Finish()
	fmt.Fprintf(w, "done: %d lines, %d skipped, %d mentions of %d events, sketch %s\n",
		lines, skipped, det.N(), mapper.Events(), metrics.HumanBytes(det.Bytes()))
	if started {
		if err := emit(det.MaxTime()); err != nil {
			return err
		}
	}
	if save != "" {
		f, err := os.Create(save)
		if err != nil {
			return err
		}
		if err := det.Save(f); err != nil {
			f.Close() //histburst:allow errdrop -- best-effort cleanup; the Save error takes precedence
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "saved sketch to %s\n", save)
	}
	return nil
}
