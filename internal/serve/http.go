package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"iam/internal/query"
)

// EstimateRequest is the POST /estimate body.
type EstimateRequest struct {
	// Query is a SQL-ish conjunction over the served table's columns,
	// e.g. "latitude <= 40 AND longitude >= -100".
	Query string `json:"query"`
	// DeadlineMs, when positive, bounds this request; past the deadline
	// the answer degrades to the cheap fallback tier.
	DeadlineMs int `json:"deadline_ms,omitempty"`
}

// EstimateResponse is the POST /estimate success body.
type EstimateResponse struct {
	Selectivity float64 `json:"selectivity"`
	Source      string  `json:"source"`
	Version     int     `json:"version"`
	ElapsedUs   int64   `json:"elapsed_us"`
}

// maxEstimateBody caps a POST /estimate body. A request is one query string
// and a deadline, so 1 MiB is far above any real conjunction; the cap bounds
// what an untrusted client can make the server read and buffer.
const maxEstimateBody = 1 << 20

// maxDeadlineMs is the largest deadline_ms whose conversion to a
// time.Duration does not overflow.
const maxDeadlineMs = math.MaxInt64 / int64(time.Millisecond)

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the server's HTTP API:
//
//	POST /estimate  {"query": "...", "deadline_ms": 50}
//	GET  /healthz   200 while serving, 503 while draining
//	GET  /stats     Stats snapshot as JSON
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /estimate", s.handleEstimate)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	return mux
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if s.table == nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "server has no table bound"})
		return
	}
	var req EstimateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxEstimateBody)).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{Error: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("bad request body: %v", err)})
		return
	}
	if int64(req.DeadlineMs) > maxDeadlineMs {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("deadline_ms %d exceeds %d", req.DeadlineMs, maxDeadlineMs)})
		return
	}
	q, err := query.Parse(s.table, req.Query)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	ctx := r.Context()
	if req.DeadlineMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMs)*time.Millisecond)
		defer cancel()
	}
	start := time.Now()
	res, err := s.Estimate(ctx, q)
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
		return
	case errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, EstimateResponse{
		Selectivity: res.Selectivity,
		Source:      res.Source,
		Version:     res.Version,
		ElapsedUs:   time.Since(start).Microseconds(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.closeMu.RLock()
	closing := s.closing
	s.closeMu.RUnlock()
	if closing {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// writeJSON encodes v first so an encoding failure can still become a clean
// 500 instead of a half-written 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		http.Error(w, "response encoding failed", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // a failed response write is the client's problem
}

// retryAfterSeconds renders a backoff hint as the integral seconds the
// Retry-After header requires, rounding sub-second hints up to 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int(d / time.Second)
	if d%time.Second != 0 || secs == 0 {
		secs++
	}
	return strconv.Itoa(secs)
}
