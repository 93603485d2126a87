package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"iam/internal/guard/faultinject"
)

func postEstimate(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/estimate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHTTPEstimateRoundTrip(t *testing.T) {
	m, tbl := testModel(t)
	s, err := New(Config{BatchWindow: time.Millisecond}, tbl, m)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postEstimate(t, ts.URL, `{"query": "latitude <= 40", "deadline_ms": 2000}`)
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var er EstimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Selectivity < 0 || er.Selectivity > 1 {
		t.Fatalf("selectivity %v out of range", er.Selectivity)
	}
	if er.Version != 1 || er.Source == "" {
		t.Fatalf("provenance missing: %+v", er)
	}

	// Malformed query → 400 with a JSON error body.
	resp = postEstimate(t, ts.URL, `{"query": "no_such_column <= 40"}`)
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query status = %d, want 400", resp.StatusCode)
	}
	var ee errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&ee); err != nil || ee.Error == "" {
		t.Fatalf("bad query error body: %+v, %v", ee, err)
	}

	// Malformed JSON → 400.
	resp = postEstimate(t, ts.URL, `{"query": `)
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body status = %d, want 400", resp.StatusCode)
	}

	// GET on /estimate → 405 via the method-scoped mux pattern.
	getResp, err := http.Get(ts.URL + "/estimate")
	if err != nil {
		t.Fatal(err)
	}
	if err := getResp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /estimate status = %d, want 405", getResp.StatusCode)
	}
}

func TestHTTPHealthAndStatsLifecycle(t *testing.T) {
	m, tbl := testModel(t)
	s, err := New(Config{BatchWindow: time.Millisecond}, tbl, m)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	resp, body := get("/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	// Serve one request so /stats has something to report.
	er := postEstimate(t, ts.URL, `{"query": "latitude <= 40"}`)
	if err := er.Body.Close(); err != nil {
		t.Fatal(err)
	}
	resp, body = get("/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("stats not valid JSON: %v\n%s", err, body)
	}
	if st.Accepted == 0 || st.Version != 1 || len(st.Cascade) == 0 {
		t.Fatalf("stats snapshot incomplete: %+v", st)
	}

	// Draining: healthz flips to 503, estimate refuses with 503.
	mustClose(t, s)
	resp, _ = get("/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status = %d, want 503", resp.StatusCode)
	}
	resp = postEstimate(t, ts.URL, `{"query": "latitude <= 40"}`)
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-close estimate status = %d, want 503", resp.StatusCode)
	}
}

// saturate fills a MaxBatch 1, MaxInFlight 1, QueueDepth 1 server whose
// primary is slow: one request holds the in-flight slot, one waits in the
// batcher for it, one fills the queue. The requests go in one at a time,
// each only once the previous one is observed where it belongs — submitted
// together, a second request can find the first still queued and be
// rejected itself, leaving room for the probe. The returned channel yields
// once per finished request.
func saturate(t *testing.T, s *Server) <-chan struct{} {
	t.Helper()
	handler := s.Handler()
	done := make(chan struct{}, 3)
	for i, queued := range []int{0, 0, 1} {
		go func() {
			r := httptest.NewRequest("POST", "/estimate", strings.NewReader(`{"query": "latitude <= 40"}`))
			handler.ServeHTTP(httptest.NewRecorder(), r)
			done <- struct{}{}
		}()
		awaitStats(t, s, uint64(i+1), queued)
	}
	return done
}

// awaitStats polls until the server has admitted accepted requests, holds
// its in-flight slot and has queued requests waiting. Each awaited state
// lasts as long as the slow primary runs, so a poll that misses it for the
// whole deadline means admission did not behave as configured.
func awaitStats(t *testing.T, s *Server, accepted uint64, queued int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		if st.Accepted == accepted && st.InFlight == 1 && st.QueueLen == queued {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never reached accepted %d, in flight 1, queue %d: got accepted %d, rejected %d, in flight %d, queue %d/%d",
				accepted, queued, st.Accepted, st.Rejected, st.InFlight, st.QueueLen, st.QueueCap)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHTTPOverloadSetsRetryAfter(t *testing.T) {
	_, tbl := testModel(t)
	// A server whose queue drains slowly: single batch slot, slow primary —
	// fill it, then expect 429 + Retry-After.
	s, err := NewInjected(Config{
		MaxBatch:    1,
		BatchWindow: time.Millisecond,
		QueueDepth:  1,
		MaxInFlight: 1,
		RetryAfter:  1500 * time.Millisecond,
	}, tbl, &faultinject.SlowEstimator{Delay: 700 * time.Millisecond, Value: 0.5},
		&faultinject.ConstEstimator{Value: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	handler := s.Handler()

	// Saturate: one request occupies the dispatcher for 700ms, one waits on
	// the in-flight slot, one fills the queue. The probe below lands only
	// once all three are observed stuck, so rejection is deterministic.
	done := saturate(t, s)
	r := httptest.NewRequest("POST", "/estimate", strings.NewReader(`{"query": "latitude <= 40"}`))
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, r)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("probe against a saturated server got %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want %q (1.5s rounded up)", ra, "2")
	}
	for i := 0; i < 3; i++ {
		<-done
	}
	mustClose(t, s)
}

// TestHTTPOverloadRetryAfterMatchesStats pins the consistency contract
// between the two faces of admission control: at the instant a probe gets a
// 429, the /stats snapshot must agree — queue at capacity, the rejection
// counted — and the Retry-After header must render exactly the configured
// backoff hint. A 429 whose stats still claim a free queue (or vice versa)
// would send clients into exactly the retry storm the hint exists to damp.
func TestHTTPOverloadRetryAfterMatchesStats(t *testing.T) {
	_, tbl := testModel(t)
	s, err := NewInjected(Config{
		MaxBatch:    1,
		BatchWindow: time.Millisecond,
		QueueDepth:  1,
		MaxInFlight: 1,
		RetryAfter:  3 * time.Second,
	}, tbl, &faultinject.SlowEstimator{Delay: 700 * time.Millisecond, Value: 0.5},
		&faultinject.ConstEstimator{Value: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	handler := s.Handler()

	// Saturate exactly as TestHTTPOverloadSetsRetryAfter does: one request
	// holds the dispatcher for 700ms, one waits on the in-flight slot, one
	// fills the queue; the probe lands once all three are observed stuck.
	done := saturate(t, s)
	r := httptest.NewRequest("POST", "/estimate", strings.NewReader(`{"query": "latitude <= 40"}`))
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, r)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("probe against a saturated server got %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want %q (the configured 3s hint)", ra, "3")
	}

	// The rejecting 429 and the stats snapshot must describe the same world:
	// the queue the request could not enter is full, and the rejection was
	// counted. The slow dispatch still has ~600ms to run, so the snapshot
	// deterministically observes the saturated state.
	statsRec := httptest.NewRecorder()
	handler.ServeHTTP(statsRec, httptest.NewRequest("GET", "/stats", nil))
	var st Stats
	if err := json.Unmarshal(statsRec.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats not valid JSON: %v\n%s", err, statsRec.Body.Bytes())
	}
	if st.QueueLen != st.QueueCap {
		t.Fatalf("429 issued but stats report queue %d/%d — admission and stats disagree", st.QueueLen, st.QueueCap)
	}
	if st.QueueCap != 1 {
		t.Fatalf("queue_cap = %d, want the configured 1", st.QueueCap)
	}
	if st.Rejected == 0 {
		t.Fatal("429 issued but stats count zero rejections")
	}

	for i := 0; i < 3; i++ {
		<-done
	}
	mustClose(t, s)
}

// serveBody sends one POST /estimate body straight to the handler.
func serveBody(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/estimate", bytes.NewReader(body)))
	return rec
}

// TestHTTPEstimateBodyLimits: an oversized body is refused with 413, and a
// deadline_ms whose time.Duration would overflow is refused with 400 instead
// of wrapping negative and sending the request straight to the cheap tier.
func TestHTTPEstimateBodyLimits(t *testing.T) {
	m, tbl := testModel(t)
	s, err := New(Config{BatchWindow: time.Millisecond}, tbl, m)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, s)
	h := s.Handler()

	for _, tc := range []struct {
		name   string
		body   string
		status int
		source string
	}{
		{"oversized", `{"query": "` + strings.Repeat("a", maxEstimateBody) + `"}`, http.StatusRequestEntityTooLarge, ""},
		{"deadline_overflow", `{"query": "latitude <= 40", "deadline_ms": 9223372036855}`, http.StatusBadRequest, ""},
		{"deadline_max", `{"query": "latitude <= 40", "deadline_ms": 9223372036854}`, http.StatusOK, SourceBatch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := serveBody(h, []byte(tc.body))
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d: %s", rec.Code, tc.status, rec.Body)
			}
			if tc.source == "" {
				var er errorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
					t.Fatalf("error body %q: %v", rec.Body, err)
				}
				return
			}
			var er EstimateResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
				t.Fatal(err)
			}
			if er.Source != tc.source {
				t.Errorf("source = %q, want %q", er.Source, tc.source)
			}
		})
	}
}

// FuzzEstimateBody: whatever a client sends, /estimate answers with one of
// its documented statuses and a valid JSON body, never a panic or a 500.
func FuzzEstimateBody(f *testing.F) {
	m, tbl := testModel(f)
	s, err := New(Config{BatchWindow: time.Millisecond}, tbl, m)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { mustClose(f, s) })
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serveBody(h, body)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("invalid JSON response %q for body %q", rec.Body, body)
		}
	})
}
