package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"eplace/internal/checkpoint"
	"eplace/internal/telemetry"
)

// maxBodyBytes bounds a job submission (uploaded Bookshelf files
// travel inline in the JSON body).
const maxBodyBytes = 64 << 20

// handler returns the HTTP API:
//
//	POST /jobs                  submit a JobSpec, 201 + JobStatus
//	GET  /jobs                  list all jobs
//	GET  /jobs/{id}             one job's status
//	POST /jobs/{id}/cancel      cancel (idempotent)
//	GET  /jobs/{id}/telemetry   recent per-iteration events as JSONL
//	GET  /jobs/{id}/trace       the full JSONL trace (all run segments)
//	GET  /jobs/{id}/result      JobResult (409 until the job is done)
//	GET  /jobs/{id}/result.pl   placed Bookshelf .pl
//	GET  /jobs/{id}/checkpoint  latest raw checkpoint file
//	GET  /status                scheduler Stats
//
// Errors are JSON objects {"error": "..."}.
func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Jobs())
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Job(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("POST /jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /jobs/{id}/telemetry", s.handleTelemetry)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleArtifact("trace.jsonl", "application/x-ndjson"))
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/result.pl", s.handleArtifact("result.pl", "text/plain; charset=utf-8"))
	mux.HandleFunc("GET /jobs/{id}/checkpoint",
		s.handleArtifact(filepath.Join("ckpt", checkpoint.LatestName), "application/octet-stream"))
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "decoding spec: " + err.Error()})
		return
	}
	st, err := s.Submit(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/jobs/"+st.ID)
	writeJSON(w, http.StatusCreated, st)
}

// handleTelemetry streams the job's retained ring events in the same
// JSONL format the trace files use, so one decoder (ReadJSONL) serves
// both.
func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	ring := s.Ring(r.PathValue("id"))
	if ring == nil {
		writeError(w, ErrNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	sink := telemetry.NewJSONLSink(w)
	for _, sm := range ring.Samples() {
		sink.Sample(sm)
	}
	for _, sp := range ring.Spans() {
		sink.Span(sp)
	}
	sink.Close() // flush; w is not an io.Closer
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	st, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	if st.Result == nil {
		writeJSON(w, http.StatusConflict,
			map[string]string{"error": fmt.Sprintf("job %s is %s, no result yet", st.ID, st.State)})
		return
	}
	writeJSON(w, http.StatusOK, st.Result)
}

// handleArtifact serves one file out of the job directory.
func (s *Server) handleArtifact(rel, contentType string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		dir := s.JobDir(r.PathValue("id"))
		if dir == "" {
			writeError(w, ErrNotFound)
			return
		}
		path := filepath.Join(dir, rel)
		if _, err := os.Stat(path); err != nil {
			writeJSON(w, http.StatusNotFound,
				map[string]string{"error": "artifact not available: " + rel})
			return
		}
		w.Header().Set("Content-Type", contentType)
		http.ServeFile(w, r, path)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrQueueFull):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrCheckpointExpired):
		code = http.StatusGone
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	default:
		code = http.StatusBadRequest
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// HTTPServer serves a Server's Handler on a listener.
type HTTPServer struct {
	s   *Server
	ln  net.Listener
	srv *http.Server
}

// ListenAndServe starts serving s on addr (e.g. ":8080", or ":0" for
// an ephemeral test port).
func ListenAndServe(addr string, s *Server) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	h := &HTTPServer{s: s, ln: ln, srv: &http.Server{Handler: s.handler()}}
	go h.srv.Serve(ln)
	return h, nil
}

// Addr returns the bound listen address.
func (h *HTTPServer) Addr() string { return h.ln.Addr().String() }

// Close drains in-flight HTTP requests (bounded by a short timeout,
// then forced) without touching the job scheduler — callers shut the
// Server itself down separately so jobs checkpoint before exit.
func (h *HTTPServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctx); err != nil {
		return h.srv.Close()
	}
	return nil
}
