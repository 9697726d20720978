package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"head/internal/obs"
	"head/internal/obs/span"
)

// TestExemplarRing pins the tail-capture semantics: bounded slowest-K
// admission, lazy wire marshal (only admitted requests pay it), window
// rotation into a last generation, and exactly-once Drain.
func TestExemplarRing(t *testing.T) {
	now := time.Unix(5000, 0)
	clock := func() time.Time { return now }
	r := NewExemplarRing(2, time.Minute, clock)

	var marshals atomic.Int64
	wire := func(ms float64) (Exemplar, func() []byte) {
		return Exemplar{ID: fmt.Sprintf("r-%.0f", ms), E2EMs: ms}, func() []byte {
			marshals.Add(1)
			return []byte(`{"ms":` + fmt.Sprintf("%.0f", ms) + `}`)
		}
	}

	// Fill: both admitted, both marshaled.
	e, w := wire(10)
	r.Offer(e, w)
	e, w = wire(20)
	r.Offer(e, w)
	if got := marshals.Load(); got != 2 {
		t.Fatalf("%d marshals after fill, want 2", got)
	}
	// Faster than the current minimum: rejected without marshal.
	e, w = wire(5)
	r.Offer(e, w)
	if got := marshals.Load(); got != 2 {
		t.Fatalf("rejected offer marshaled anyway (%d)", got)
	}
	// Slower: displaces the 10ms entry.
	e, w = wire(30)
	r.Offer(e, w)
	if got := marshals.Load(); got != 3 {
		t.Fatalf("%d marshals after displacement, want 3", got)
	}
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].E2EMs != 30 || snap[1].E2EMs != 20 {
		t.Fatalf("snapshot %+v, want [30, 20] slowest first", snap)
	}
	if len(snap[0].Observation) == 0 {
		t.Error("admitted exemplar lost its observation")
	}

	// One window later the set rotates into the last generation and stays
	// visible; a fresh slow request joins it in the snapshot.
	now = now.Add(61 * time.Second)
	e, w = wire(50)
	r.Offer(e, w)
	snap = r.Snapshot()
	if len(snap) != 3 || snap[0].E2EMs != 50 {
		t.Fatalf("post-rotation snapshot %+v, want [50 30 20]", snap)
	}
	// Two idle windows later the last generation is stale too.
	now = now.Add(3 * time.Minute)
	if snap := r.Snapshot(); len(snap) != 0 {
		t.Fatalf("stale snapshot %+v, want empty", snap)
	}

	// Drain is exactly-once and seals the ring.
	e, w = wire(70)
	r.Offer(e, w)
	if got := r.Drain(); len(got) != 1 || got[0].E2EMs != 70 {
		t.Fatalf("drain %+v, want the 70ms exemplar", got)
	}
	if got := r.Drain(); got != nil {
		t.Fatalf("second drain returned %+v, want nil", got)
	}
	e, w = wire(90)
	r.Offer(e, w)
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("post-drain offer captured: %+v", got)
	}

	// Nil receiver is inert everywhere.
	var nilRing *ExemplarRing
	nilRing.Offer(Exemplar{}, nil)
	if nilRing.Snapshot() != nil || nilRing.Drain() != nil {
		t.Error("nil ring not inert")
	}
}

// TestTelemetrySampling: the per-request trace decision is a deterministic
// hash of the sequence number — the same run samples the same requests —
// and the sampled fraction tracks the configured rate.
func TestTelemetrySampling(t *testing.T) {
	tel := NewTelemetry(TelemetryConfig{Sample: 0.25})
	hits := 0
	const n = 4096
	for seq := uint64(0); seq < n; seq++ {
		if tel.sampled(seq) {
			hits++
		}
		if tel.sampled(seq) != tel.sampled(seq) {
			t.Fatal("sampling not deterministic")
		}
	}
	if frac := float64(hits) / n; frac < 0.20 || frac > 0.30 {
		t.Errorf("sampled fraction %.3f, want ~0.25", frac)
	}
	all := NewTelemetry(TelemetryConfig{})
	if !all.sampled(0) || !all.sampled(12345) {
		t.Error("Sample 0 must record everything")
	}
}

// TestBeginNilTelemetry: request ids must flow with telemetry disabled — a
// nil *Telemetry still mints ids, and Finish is a safe no-op.
func TestBeginNilTelemetry(t *testing.T) {
	var tel *Telemetry
	rt := tel.Begin("")
	if rt.ID == "" {
		t.Fatal("nil telemetry minted no id")
	}
	rt2 := tel.Begin("")
	if rt2.ID == rt.ID {
		t.Fatalf("duplicate minted ids: %q", rt.ID)
	}
	if rt := tel.Begin("client-7"); rt.ID != "client-7" {
		t.Errorf("client id not preserved: %q", rt.ID)
	}
	rt.Finish(nil, Result{}, 200, nil)
	rt.Finish(nil, Result{}, 200, nil) // idempotent
	var nilRT *ReqTrace
	nilRT.Finish(nil, Result{}, 200, nil)
}

// TestFinishIdempotent: only the first Finish records — the SLO engine,
// exemplar ring, and span ring each see the request exactly once even when
// every handler exit path calls Finish.
func TestFinishIdempotent(t *testing.T) {
	tr := span.New(span.Config{})
	slo := obs.NewSLO(obs.SLOConfig{})
	ring := NewExemplarRing(4, time.Minute, nil)
	tel := NewTelemetry(TelemetryConfig{Tracer: tr, SLO: slo, Exemplars: ring})

	rt := tel.Begin("dup-1")
	rt.Finish(nil, Result{}, 500, fmt.Errorf("boom"))
	rt.Finish(nil, Result{}, 200, nil)
	rt.Finish(nil, Result{}, 200, nil)

	if st := slo.Status(); st.Total != 1 || st.Errors != 1 {
		t.Errorf("SLO saw total %d errors %d, want 1/1", st.Total, st.Errors)
	}
	if exs := ring.Snapshot(); len(exs) != 1 || exs[0].Status != 500 {
		t.Errorf("ring saw %+v, want one 500 exemplar", exs)
	}
	spans, _ := tr.Snapshot()
	roots := 0
	for _, s := range spans {
		if s.Name == "request" {
			roots++
		}
	}
	if roots != 1 {
		t.Errorf("%d request spans recorded, want 1", roots)
	}
	if tel.Started() != 1 || tel.Finished() != 1 {
		t.Errorf("accounting %d/%d, want 1/1", tel.Started(), tel.Finished())
	}
}

// TestDrainTelemetryFlush is the shutdown-under-load gate (run it under
// -race): while concurrent clients hammer the service, the batcher begins
// its ordered drain. Afterwards every request that entered the telemetry
// layer must have finished exactly once (started == finished, one root
// span per request id), and the exemplar ring must flush exactly once.
func TestDrainTelemetryFlush(t *testing.T) {
	tr := span.New(span.Config{})
	slo := obs.NewSLO(obs.SLOConfig{P99TargetMs: 1000})
	ring := NewExemplarRing(8, time.Minute, nil)
	tel := NewTelemetry(TelemetryConfig{Tracer: tr, SLO: slo, Exemplars: ring})

	d := &echoDecider{delay: 300 * time.Microsecond}
	b := NewBatcher(BatcherConfig{MaxBatch: 4, Queue: 8, Replicas: 2},
		func() Decider { return d })
	srv := httptest.NewServer(NewMux(b, 1, "f64", NewSessionCache(0), nil, tel))

	body, _ := json.Marshal(mark(3))
	const goroutines, perG = 8, 30
	var wg sync.WaitGroup
	var oks, errs atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				req, _ := http.NewRequest("POST", srv.URL+"/v1/decide", bytes.NewReader(body))
				req.Header.Set(RequestIDHeader, fmt.Sprintf("d-%02d-%03d", g, i))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errs.Add(1)
					continue
				}
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					oks.Add(1)
				} else {
					errs.Add(1)
				}
			}
		}(g)
	}

	// Begin the ordered drain once real traffic is flowing: admitted
	// requests are answered, late ones are refused with 503 — both paths
	// must Finish their trace.
	for deadline := time.Now().Add(10 * time.Second); oks.Load() < 20 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	b.Close()
	wg.Wait()
	srv.Close()

	if oks.Load() == 0 {
		t.Error("no requests served before the drain — the test raced past the load")
	}
	if errs.Load() == 0 {
		t.Error("no requests refused during the drain — Close happened after the load")
	}
	if s, f := tel.Started(), tel.Finished(); s != f || s != goroutines*perG {
		t.Errorf("telemetry accounting after drain: started %d finished %d, want %d/%d",
			s, f, goroutines*perG, goroutines*perG)
	}

	// Every request id closed its root span exactly once.
	spans, total := tr.Snapshot()
	if int(total) != len(spans) {
		t.Fatalf("span ring overflowed (%d recorded, %d retained)", total, len(spans))
	}
	perID := map[string]int{}
	for _, s := range spans {
		if s.Name == "request" {
			perID[s.Req]++
		}
	}
	if len(perID) != goroutines*perG {
		t.Errorf("%d distinct request spans, want %d", len(perID), goroutines*perG)
	}
	for id, n := range perID {
		if n != 1 {
			t.Errorf("request %s has %d root spans, want exactly 1", id, n)
		}
	}

	// The exemplar ring flushes exactly once on drain.
	exs := ring.Drain()
	if len(exs) == 0 {
		t.Error("drain flushed no exemplars despite served traffic")
	}
	for _, ex := range exs {
		if ex.ID == "" {
			t.Errorf("flushed exemplar without id: %+v", ex)
		}
	}
	if again := ring.Drain(); again != nil {
		t.Errorf("second drain returned %d exemplars, want nil", len(again))
	}
}

// TestFinishResyncNotSLOError: a 409 resend-full is delta-protocol flow
// control — the client heals it with one retried full request — so it
// must count toward the SLO window's total but not its error budget,
// unlike a genuine 4xx/5xx. Otherwise deliberate cache pressure (a
// squeezed -session-cache) reads as a burning error-rate objective.
func TestFinishResyncNotSLOError(t *testing.T) {
	slo := obs.NewSLO(obs.SLOConfig{})
	tel := NewTelemetry(TelemetryConfig{SLO: slo})

	tel.Begin("rs-1").Finish(nil, Result{}, 409, fmt.Errorf("session: %w", ErrResync))
	tel.Begin("rs-2").Finish(nil, Result{}, 400, fmt.Errorf("malformed"))
	tel.Begin("rs-3").Finish(nil, Result{}, 200, nil)

	if st := slo.Status(); st.Total != 3 || st.Errors != 1 {
		t.Errorf("SLO saw total %d errors %d, want 3 total with only the 400 counted", st.Total, st.Errors)
	}
}
