package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// Handler returns the service's HTTP API:
//
//	POST   /jobs              submit a job (202 + status; body: submission JSON, at most 1 MiB)
//	GET    /jobs              list all jobs in admission order
//	GET    /jobs/{id}         one job's status
//	DELETE /jobs/{id}         cancel a pending or running job
//	GET    /jobs/{id}/events  live event stream (Server-Sent Events)
//	GET    /jobs/{id}/report  a completed job's stored report (JSON)
//	GET    /reports/{sha}     any stored report by content address
//	GET    /healthz           liveness
//
// The event stream frames the hub's events as SSE: `event:` carries the
// type (job, round, run, aggregate, dropped, end) and `data:` the JSON
// payload. The stream ends after the terminal "end" event. A consumer
// that reads slower than the job produces loses its oldest buffered
// events; the loss is reported in-band as "dropped" events carrying the
// count, and never slows the simulation or other subscribers.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/report", s.handleJobReport)
	mux.HandleFunc("GET /reports/{sha}", s.handleBlob)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// httpError maps service errors onto status codes and emits a JSON error
// body.
func httpError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrNoJob):
		code = http.StatusNotFound
	case errors.Is(err, ErrTerminal):
		code = http.StatusConflict
	case errors.Is(err, ErrQueueFull):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	case errors.As(err, new(*http.MaxBytesError)):
		code = http.StatusRequestEntityTooLarge
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// writeJSON emits one response object.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// maxSubmission bounds a POST /jobs body. Submissions are a job spec and
// at most an embedded scenario catalog: kilobytes, not megabytes.
const maxSubmission = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	sub, err := parseSubmission(http.MaxBytesReader(w, r.Body, maxSubmission))
	if err != nil {
		httpError(w, err)
		return
	}
	st, err := s.Submit(sub)
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Location", "/jobs/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleJobReport(w http.ResponseWriter, r *http.Request) {
	blob, err := s.Report(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(blob)
}

func (s *Server) handleBlob(w http.ResponseWriter, r *http.Request) {
	blob, err := s.Blob(r.PathValue("sha"))
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(blob)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	status := "ok"
	if s.drain {
		status = "draining"
	}
	jobs, running := len(s.jobs), s.running
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status": status, "jobs": jobs, "running": running,
	})
}

// handleEvents streams a job's events as Server-Sent Events until the
// terminal event, the client disconnecting, or the server closing the
// hub. The subscriber's ring decouples this writer from the simulation:
// event production never waits on this connection.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sub, hub, err := s.Subscribe(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	defer hub.unsubscribe(sub)

	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, errors.New("service: streaming unsupported by this connection"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	writeEvent := func(ev Event) bool {
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, ev.Data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-sub.ch:
			if !ok {
				return
			}
			// Surface this subscriber's own losses in-band, so a consumer
			// can tell "no events" from "events dropped while I stalled".
			if n := sub.dropped.Swap(0); n > 0 {
				if !writeEvent(jsonEvent("dropped", map[string]uint64{"events": n})) {
					return
				}
			}
			if !writeEvent(ev) {
				return
			}
		}
	}
}
