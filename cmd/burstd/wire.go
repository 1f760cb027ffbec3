package main

import (
	"net"
	"net/http"
	"net/http/pprof"

	"histburst/internal/segstore"
	"histburst/internal/stream"
	"histburst/internal/wire"
)

// The wire.Backend implementation: the HBP1 listener fronts the same store
// snapshots, answered through the same wire.Answer* functions, and the same
// ingest seam the HTTP handlers use, so the two transports cannot drift
// apart semantically.

// Snapshot returns the store view wire queries run against.
func (s *server) Snapshot() *segstore.Snapshot { return s.store.Snapshot() }

// Ingest drives one wire append batch through the shared admission policy.
func (s *server) Ingest(elems stream.Stream) wire.IngestResult { return s.ingest(elems) }

// Stats answers STATS frames and is the body of GET /v1/stats.
func (s *server) Stats() wire.Stats {
	sn := s.store.Snapshot()
	h := s.store.Health()
	return wire.Stats{
		Elements:    sn.N(),
		EventSpace:  s.store.K(),
		MaxTime:     sn.MaxTime(),
		Bytes:       int64(sn.Bytes()),
		OutOfOrder:  s.store.Rejected(),
		Generation:  sn.Generation(),
		Segments:    len(sn.Segments()),
		Quarantined: h.Quarantined,
		ReadOnly:    s.readOnly.Load(),
		HeadElems:   sn.Head().Elements,
		Resident:    sn.Resident(),
		HeapAlloc:   int64(heapAllocBytes()),
	}
}

// wireServer builds the HBP1 server fronting this burstd instance.
func (s *server) wireServer() *wire.Server {
	return &wire.Server{Backend: s, Logf: s.logf}
}

// wireListener couples an HBP1 server to its TCP listener so shutdown can
// tear both down.
type wireListener struct {
	ws *wire.Server
	ln net.Listener
}

// listenWire starts the HBP1 listener on addr, serving srv's store. The
// serve goroutine exits when Close (or Drain) tears the listener down.
//
//histburst:worker Close
func listenWire(srv *server, addr string) (*wireListener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ws := srv.wireServer()
	go func() {
		if err := ws.Serve(ln); err != nil {
			srv.logf("burstd: wire listener: %v", err)
		}
	}()
	return &wireListener{ws: ws, ln: ln}, nil
}

func (w *wireListener) Addr() net.Addr { return w.ln.Addr() }

// Drain stops accepting new wire connections while live ones keep serving
// through the shutdown drain window — their in-flight appends are answered
// with NACK(draining) + Retry-After by the shared ingest seam rather than
// a connection reset, mirroring the HTTP drain.
func (w *wireListener) Drain() {
	w.ws.Drain()
	w.ln.Close() //histburst:allow errdrop -- drain teardown; nothing to recover
}

// Close stops accepting and drops every live wire connection.
func (w *wireListener) Close() {
	w.ws.Close()
	w.ln.Close() //histburst:allow errdrop -- shutdown teardown; nothing to recover
}

// debugHandler serves net/http/pprof on the separate -debug-addr listener.
// The profiling routes are registered on a private mux rather than imported
// for DefaultServeMux's side effect, so the public serving mux never
// exposes them.
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
