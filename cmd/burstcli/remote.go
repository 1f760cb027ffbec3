package main

import (
	"fmt"
	"time"

	"histburst/internal/metrics"
	"histburst/internal/segstore"
	"histburst/internal/wire"
)

// runRemote answers the query against a running burstd over HBP1 instead
// of building a detector locally. Degraded-mode answers carry the store's
// γ error envelope; it is surfaced next to the result the same way the
// HTTP API attaches its envelope object.
func runRemote(addr string, point, times, evts, stats bool, e uint64, t, tau int64, theta float64) error {
	c, err := wire.Dial(addr, 10*time.Second)
	if err != nil {
		return fmt.Errorf("dial %s: %w", addr, err)
	}
	defer c.Close()

	switch {
	case stats:
		st, err := c.Stats()
		if err != nil {
			return err
		}
		h := c.Hello()
		fmt.Printf("elements:       %d\n", st.Elements)
		fmt.Printf("id space:       %d (γ=%g)\n", st.EventSpace, h.Gamma)
		fmt.Printf("time span:      [0, %d]\n", st.MaxTime)
		fmt.Printf("sketch size:    %s\n", metrics.HumanBytes(int(st.Bytes)))
		if st.Bytes > 0 {
			fmt.Printf("process heap:   %s (%.2f× the sketch size it counts)\n",
				metrics.HumanBytes(int(st.HeapAlloc)), float64(st.HeapAlloc)/float64(st.Bytes))
		}
		fmt.Printf("segments:       %d (%d resident, %d quarantined, head %d elems)\n",
			st.Segments, st.Resident, st.Quarantined, st.HeadElems)
		if st.ReadOnly {
			fmt.Printf("mode:           read-only (degraded)\n")
		}
	case point:
		res, err := c.Point([]wire.PointQuery{{Event: e, T: t, Tau: tau}})
		if err != nil {
			return err
		}
		fmt.Printf("b_%d(%d) ≈ %.1f (τ=%d)%s\n", e, t, res[0].Burstiness, tau,
			envelopeNote(res[0].Envelope))
	case times:
		ranges, env, err := c.Times(e, theta, tau)
		if err != nil {
			return err
		}
		if note := envelopeNote(env); note != "" {
			fmt.Println(note)
		}
		if len(ranges) == 0 {
			fmt.Printf("event %d never reaches burstiness %.0f (τ=%d)\n", e, theta, tau)
			return nil
		}
		for _, r := range ranges {
			fmt.Printf("[%d, %d)\n", r.Start, r.End)
		}
	case evts:
		hits, env, err := c.Events(t, theta, tau)
		if err != nil {
			return err
		}
		if note := envelopeNote(env); note != "" {
			fmt.Println(note)
		}
		if len(hits) == 0 {
			fmt.Printf("no event reaches burstiness %.0f at t=%d (τ=%d)\n", theta, t, tau)
			return nil
		}
		for _, h := range hits {
			fmt.Printf("event %-8d b ≈ %.1f\n", h.Event, h.Burstiness)
		}
	default:
		return fmt.Errorf("with -addr pass one of -point, -times, -events, -stats")
	}
	return nil
}

// envelopeNote renders a degraded-history warning, empty when the history
// is whole.
func envelopeNote(env *segstore.ErrorEnvelope) string {
	if env == nil {
		return ""
	}
	if !env.Degraded {
		return fmt.Sprintf("  [error bound ±%.3g (%d components, γ=%g)]",
			env.Bound, env.Components, env.Gamma)
	}
	return fmt.Sprintf("  [degraded: %d elements missing in %d quarantined spans, bound ±%.3g]",
		env.MissingElements, len(env.Missing), env.Bound)
}
