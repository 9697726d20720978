package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"head/internal/obs"
	"head/internal/serve"
	"head/internal/world"
)

// TestReplayBacksOffOnFailure: a session facing a server that refuses
// every request must space its retries out instead of spinning. Over
// 300 ms the capped exponential backoff allows about ten requests; a
// retry loop without it sends thousands.
func TestReplayBacksOffOnFailure(t *testing.T) {
	var posts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts.Add(1)
		}
		http.Error(w, "shedding", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	lc := &loadClient{client: srv.Client(), base: srv.URL, wire: "json", session: "ld-000"}
	pool := []serve.Observation{{Frames: []serve.Frame{{AV: world.State{Lat: 1}}}}}
	var recording, stop atomic.Bool
	recording.Store(true)
	timer := time.AfterFunc(300*time.Millisecond, func() { stop.Store(true) })
	defer timer.Stop()
	res := runReplaySession(lc, pool, 0, false, &recording, &stop, obs.NewRegistry().Histogram("load.latency_s"))

	if res.errors == 0 || res.requests != 0 {
		t.Fatalf("recorded %d errors and %d successes, want only errors", res.errors, res.requests)
	}
	if n := posts.Load(); n > 20 {
		t.Errorf("server saw %d requests in 300 ms, want at most 20", n)
	}
}
