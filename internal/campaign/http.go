package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"cherisim/internal/telemetry"
)

// Handler builds the service's HTTP API:
//
//	POST /campaigns               submit a Spec (202; 400 invalid or
//	                              trailing bytes; 413 over maxSpecBytes;
//	                              429 full)
//	GET  /campaigns               list retained campaigns' statuses
//	GET  /campaigns/{id}          one campaign's status JSON
//	GET  /campaigns/{id}/result   the rendered body, byte-identical to the
//	                              equivalent cmd/experiments invocation
//	GET  /campaigns/{id}/events   SSE progress feed (?spans=1 interleaves
//	                              the fleet-wide telemetry span feed)
//
// The three {id} routes answer 410 Gone for a campaign evicted past the
// retention bound (maxRetained) and 404 for an ID never issued.
//
// Every other path falls through to the hub's ops endpoints (/metrics,
// /spans, /profiles, /healthz, /debug/pprof), so one listener serves both
// the API and its observability.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", s.handleSubmit)
	mux.HandleFunc("GET /campaigns", s.handleList)
	mux.HandleFunc("GET /campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /campaigns/{id}/result", s.handleResult)
	mux.HandleFunc("GET /campaigns/{id}/events", s.handleEvents)
	mux.Handle("/", telemetry.OpsHandler(s.cfg.Hub))
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxSpecBytes bounds a submission body. A full spec — every experiment,
// attack, topology and core count spelled out — is a few KiB.
const maxSpecBytes = 1 << 20

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	var tooLarge *http.MaxBytesError
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	if err == nil {
		// The body is exactly one JSON object: only whitespace may follow.
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if !errors.As(err, &tooLarge) {
			err = errors.New("trailing data after the spec")
		}
	}
	if err != nil {
		code := http.StatusBadRequest
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeErr(w, code, fmt.Errorf("campaign: bad submission: %w", err))
		return
	}
	c, err := s.Submit(spec)
	if err != nil {
		var full *ErrQueueFull
		switch {
		case errors.As(err, &full):
			w.Header().Set("Retry-After", strconv.Itoa(full.Retry))
			writeErr(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrClosed):
			writeErr(w, http.StatusServiceUnavailable, err)
		default:
			writeErr(w, http.StatusBadRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, c.Status())
}

func (s *Service) handleList(w http.ResponseWriter, _ *http.Request) {
	statuses := []Status{}
	for _, c := range s.List() {
		statuses = append(statuses, c.Status())
	}
	writeJSON(w, http.StatusOK, statuses)
}

// campaignOf resolves the request's campaign, answering 410 Gone for an
// evicted one and 404 for an ID never issued.
func (s *Service) campaignOf(w http.ResponseWriter, r *http.Request) (*Campaign, bool) {
	id := r.PathValue("id")
	c, ok := s.Get(id)
	switch {
	case ok:
	case s.evicted(id):
		writeErr(w, http.StatusGone, fmt.Errorf("campaign: %s was evicted (the service retains the %d most recently finished campaigns)", id, s.retain))
	default:
		writeErr(w, http.StatusNotFound, fmt.Errorf("campaign: unknown campaign %q", id))
	}
	return c, ok
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	if c, ok := s.campaignOf(w, r); ok {
		writeJSON(w, http.StatusOK, c.Status())
	}
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignOf(w, r)
	if !ok {
		return
	}
	secs, done := c.sections()
	if !done {
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusConflict, fmt.Errorf("campaign: %s is %s, not done", c.ID, c.State()))
		return
	}
	n := 0
	for _, sec := range secs {
		n += len(sec)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	for _, sec := range secs {
		if _, err := w.Write(sec); err != nil {
			return
		}
	}
}

// handleEvents streams the campaign's progress feed as server-sent events:
// the full event history so far, then live events until the campaign is
// done (the "done" event is always the last). With ?spans=1 the fleet-wide
// telemetry span feed is interleaved as "span" events — fleet-wide because
// the hub is shared across campaigns; the progress events are what is
// campaign-scoped.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignOf(w, r)
	if !ok {
		return
	}
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	var spanFeed <-chan telemetry.SpanRecord
	if r.URL.Query().Get("spans") == "1" && s.cfg.Hub != nil {
		feed, cancel := s.cfg.Hub.Spans.Subscribe(0)
		defer cancel()
		spanFeed = feed
	}

	emit := func(kind string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", kind, data); err != nil {
			return false
		}
		if canFlush {
			fl.Flush()
		}
		return true
	}

	seen := 0
	for {
		evs, wake := c.eventsSince(seen)
		for _, ev := range evs {
			if !emit("progress", ev) {
				return
			}
			seen++
			if ev.Kind == "done" {
				return
			}
		}
		select {
		case <-wake:
		case rec, ok := <-spanFeed:
			if !ok {
				spanFeed = nil
				continue
			}
			if !emit("span", rec) {
				return
			}
		case <-r.Context().Done():
			return
		case <-s.stop:
			return
		}
	}
}
