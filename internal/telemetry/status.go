package telemetry

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// The expvar registry is process-global and panics on duplicate
// publication, so the "eplace" var is published once and reads through
// an atomic pointer to whichever recorder the latest status handler
// serves.
var (
	expvarOnce sync.Once
	expvarRec  atomic.Pointer[Recorder]
)

func publishExpvar(r *Recorder) {
	expvarRec.Store(r)
	expvarOnce.Do(func() {
		expvar.Publish("eplace", expvar.Func(func() any {
			return expvarRec.Load().Snapshot()
		}))
	})
}

// newStatusMux builds the status endpoint served by ServeStatus:
//
//	/ and /status   JSON Snapshot of the recorder (live stage,
//	                iteration, HPWL, tau, worker count, spans, counters)
//	/samples        JSON array of recent samples (ring, may be empty)
//	/debug/vars     expvar, including the "eplace" snapshot var
//	/debug/pprof/   the standard pprof profile index
//
// ring may be nil; /samples then serves an empty array. Everything is
// stdlib only.
func newStatusMux(r *Recorder, ring *RingSink) *http.ServeMux {
	publishExpvar(r)
	mux := http.NewServeMux()
	status := func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Snapshot())
	}
	mux.HandleFunc("/status", status)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		status(w, req)
	})
	mux.HandleFunc("/samples", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var samples []Sample
		if ring != nil {
			samples = ring.Samples()
		}
		if samples == nil {
			samples = []Sample{}
		}
		json.NewEncoder(w).Encode(samples)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// StatusServer is a running status endpoint.
type StatusServer struct {
	ln  net.Listener
	srv *http.Server

	// ShutdownTimeout bounds how long Close waits for in-flight
	// requests to finish before dropping them (default 2s).
	ShutdownTimeout time.Duration
}

// ServeStatus starts the status endpoint on addr (e.g. ":6060" or
// "127.0.0.1:0") and serves it in a background goroutine until Close.
func ServeStatus(addr string, r *Recorder, ring *RingSink) (*StatusServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: status listen %s: %w", addr, err)
	}
	s := &StatusServer{ln: ln, srv: &http.Server{Handler: newStatusMux(r, ring)}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address (resolves ":0" ports).
func (s *StatusServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server gracefully: it stops accepting connections
// and waits up to ShutdownTimeout for in-flight /status and /samples
// responses to finish (http.Server.Close would sever them mid-body),
// then falls back to a hard close for any straggler.
func (s *StatusServer) Close() error {
	timeout := s.ShutdownTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}
