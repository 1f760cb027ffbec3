package segstore

import (
	"fmt"

	"histburst/internal/stream"
)

// Every element enters the store through AppendBatch: admit the batch
// against the frontier (admitBatch), log the accepted set when the store
// keeps a WAL, apply it to the head (apply) — all under ingestMu, so every
// kind of store runs the same code. WAL replay is admit → apply.

// Append ingests one element. Elements must arrive in non-decreasing time
// order store-wide; a timestamp behind the frontier is rejected with an
// error wrapping stream.ErrOutOfOrder and counted in Rejected. Event ids at
// or above K are folded into the space by modulo, exactly as the monolithic
// detector folds them. With the WAL enabled the element is durable (per the
// sync policy) before Append returns.
func (s *Store) Append(e uint64, t int64) error {
	_, rejected, err := s.AppendBatch(stream.Stream{{Event: e, Time: t}})
	if err == nil && rejected > 0 {
		err = fmt.Errorf("%w: append at %d behind frontier %d", stream.ErrOutOfOrder, t, s.Frontier())
	}
	return err
}

// AppendBatch bulk-ingests a time-sorted batch, taking the head lock once
// per batch (plus once per seal boundary crossed) instead of once per
// element. Elements behind the running frontier are counted in rejected and
// skipped rather than erroring; because the batch is sorted, the rejected
// set is exactly the elements below the frontier observed at entry. A log
// failure leaves nothing applied and nothing counted, so the caller can
// retry the whole batch.
//
//histburst:durable-ack appendLocked
func (s *Store) AppendBatch(elems stream.Stream) (appended, rejected int64, err error) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	accepted, rejected := admitBatch(elems, s.Frontier())
	if s.wal != nil && len(accepted) > 0 {
		s.wal.mu.Lock()
		err := s.wal.appendLocked(accepted)
		s.wal.mu.Unlock()
		if err != nil {
			return 0, 0, err
		}
	}
	s.rejected.Add(rejected)
	if err := s.apply(accepted); err != nil {
		return 0, rejected, err
	}
	return int64(len(accepted)), rejected, nil
}

// admitBatch is the store's admission rule, run against a running
// frontier: an element behind the newest accepted timestamp so far is
// rejected, everything else is accepted in order. Freezes never change an
// element's outcome — the fresh head's floor is the frozen head's frontier
// — which is what lets the accepted set be logged before any of it is
// applied.
func admitBatch(elems stream.Stream, frontier int64) (accepted stream.Stream, rejected int64) {
	maxT := frontier
	i := 0
	for ; i < len(elems); i++ {
		if elems[i].Time < maxT {
			break
		}
		maxT = elems[i].Time
	}
	if i == len(elems) {
		return elems, 0
	}
	accepted = append(stream.Stream{}, elems[:i]...)
	for ; i < len(elems); i++ {
		if elems[i].Time < maxT {
			rejected++
			continue
		}
		maxT = elems[i].Time
		accepted = append(accepted, elems[i])
	}
	return accepted, rejected
}

// apply pushes an admitted element set into the head, freezing each head
// that fills on the way. The caller holds ingestMu, so the frontier cannot
// move under it and every element must land; a refusal means admission and
// the head disagree — surfaced as an error, never silent.
//
//histburst:locked ingestMu
func (s *Store) apply(accepted stream.Stream) error {
	for i := 0; i < len(accepted); {
		v := s.view.Load()
		consumed, _, rej, needFreeze := v.head.appendBatch(accepted[i:], s.kfold, s.sealEvents)
		if rej > 0 {
			return fmt.Errorf("segstore: %d admitted elements refused by the head (admission mismatch)", rej)
		}
		i += consumed
		if needFreeze {
			if err := s.freezeHead(v, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// Frontier returns the store's current time frontier: the newest accepted
// timestamp, or the recovery floor before any element arrives. An element
// strictly below it will be rejected as out of order.
func (s *Store) Frontier() int64 { return s.view.Load().head.frontier() }
