package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"head/internal/obs"
	"head/internal/obs/span"
	"head/internal/world"
)

func postDecide(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/decide", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// wantRejected fails unless resp is a 400 whose JSON error body carries a
// request id.
func wantRejected(t *testing.T, what string, resp *http.Response, out []byte) {
	t.Helper()
	var e errorResponse
	if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(out, &e) != nil || e.RequestID == "" {
		t.Errorf("%s: status %d body %s, want a 400 JSON error with a request id", what, resp.StatusCode, out)
	}
}

func TestHTTPDecide(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewBatcher(BatcherConfig{MaxBatch: 4, Metrics: reg},
		func() Decider { return &echoDecider{} })
	srv := httptest.NewServer(NewMux(b, 1, "f64", NewSessionCache(0), reg, nil))
	defer srv.Close()
	defer b.Close()

	// Valid decide round trip: the echo decider returns the watermark.
	body, _ := json.Marshal(mark(7))
	resp, out := postDecide(t, srv.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decide: status %d, body %s", resp.StatusCode, out)
	}
	var dr DecideResponse
	if err := json.Unmarshal(out, &dr); err != nil {
		t.Fatalf("decide response: %v in %s", err, out)
	}
	if dr.Accel != 7 {
		t.Errorf("decide echoed %v, want 7", dr.Accel)
	}
	if dr.BatchSize < 1 {
		t.Errorf("batch size %d", dr.BatchSize)
	}
	if dr.QueueMicros < 0 || dr.DecideMicros < 0 {
		t.Errorf("negative latency attribution: queue %d decide %d", dr.QueueMicros, dr.DecideMicros)
	}
	if dr.Attention != nil {
		t.Error("attention returned without ?attention=1 opt-in")
	}
	// A server-assigned request id comes back in both header and body even
	// with no Telemetry attached.
	if dr.RequestID == "" || resp.Header.Get(RequestIDHeader) != dr.RequestID {
		t.Errorf("request id: body %q, header %q", dr.RequestID, resp.Header.Get(RequestIDHeader))
	}

	// A client-provided id is echoed verbatim, including on errors.
	req, _ := http.NewRequest("POST", srv.URL+"/v1/decide", bytes.NewReader([]byte("{not json")))
	req.Header.Set(RequestIDHeader, "veh-42-0007")
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var e errorResponse
	if err := json.NewDecoder(resp3.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest || e.RequestID != "veh-42-0007" {
		t.Errorf("error echo: status %d, request_id %q (want 400, veh-42-0007)", resp3.StatusCode, e.RequestID)
	}
	if got := resp3.Header.Get(RequestIDHeader); got != "veh-42-0007" {
		t.Errorf("error header echo: %q", got)
	}

	// Attention rows come back only on opt-in.
	resp2, err := http.Post(srv.URL+"/v1/decide?attention=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var dr2 DecideResponse
	if err := json.NewDecoder(resp2.Body).Decode(&dr2); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if len(dr2.Attention) == 0 {
		t.Error("?attention=1 returned no attention rows")
	}

	// Wrong frame count → 400.
	bad, _ := json.Marshal(Observation{Frames: make([]Frame, 3)})
	if resp, out := postDecide(t, srv.URL, bad); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("3-frame observation: status %d, body %s", resp.StatusCode, out)
	}

	// A vehicle ID repeated within one frame → 400.
	dup := mark(7)
	dup.Frames[0].Vehicles = []Vehicle{{ID: 5}, {ID: 5}}
	dupBody, _ := json.Marshal(dup)
	resp, out = postDecide(t, srv.URL, dupBody)
	wantRejected(t, "JSON duplicate vehicle id", resp, out)

	// Malformed JSON → 400.
	if resp, _ := postDecide(t, srv.URL, []byte("{not json")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d", resp.StatusCode)
	}

	// GET on the decide route → 405 (method pattern).
	getResp, err := http.Get(srv.URL + "/v1/decide")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/decide: status %d, want 405", getResp.StatusCode)
	}

	// Health endpoint reflects the effective config.
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || h.Status != "ok" || h.Batch != 4 || h.Frames != 1 {
		t.Errorf("healthz: status %d body %+v", hresp.StatusCode, h)
	}

	// The shared obs surface rides the same mux and has seen the traffic.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	mbuf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK || !strings.Contains(mbuf.String(), "serve_requests") {
		t.Errorf("metrics: status %d, body lacks serve_requests:\n%s", mresp.StatusCode, mbuf.String())
	}

	// After Close, decide turns into 503 while healthz stays up.
	b.Close()
	if resp, _ := postDecide(t, srv.URL, body); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-Close decide: status %d, want 503", resp.StatusCode)
	}
}

func TestHTTPBodyLimit(t *testing.T) {
	b := NewBatcher(BatcherConfig{MaxBatch: 1},
		func() Decider { return &echoDecider{} })
	srv := httptest.NewServer(NewMux(b, 1, "f64", NewSessionCache(0), nil, nil))
	defer srv.Close()
	defer b.Close()

	// Over-cap bodies are "payload too large", not "bad request": 413 tells
	// the client to shrink, and the body still carries its request id.
	huge := append([]byte(`{"frames":[{"av":{"lat":`), bytes.Repeat([]byte("1"), maxBodyBytes+1)...)
	resp, out := postDecide(t, srv.URL, huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
	var e errorResponse
	if err := json.Unmarshal(out, &e); err != nil || e.RequestID == "" {
		t.Errorf("413 body lacks request_id: %s (err %v)", out, err)
	}
}

// TestHTTPTelemetry: with a Telemetry attached, /debug/slo, /debug/trace
// and /debug/exemplars come up on the service mux, every decide lands in
// the SLO window and the span flight recorder, and the layer's
// started/finished accounting balances once the traffic completes.
func TestHTTPTelemetry(t *testing.T) {
	tr := span.New(span.Config{})
	tel := NewTelemetry(TelemetryConfig{
		Tracer:    tr,
		SLO:       obs.NewSLO(obs.SLOConfig{P99TargetMs: 1000}),
		Exemplars: NewExemplarRing(4, time.Minute, nil),
	})
	b := NewBatcher(BatcherConfig{MaxBatch: 2},
		func() Decider { return &echoDecider{} })
	srv := httptest.NewServer(NewMux(b, 1, "f64", NewSessionCache(0), nil, tel))
	defer srv.Close()
	defer b.Close()

	body, _ := json.Marshal(mark(3))
	const n = 5
	for i := 0; i < n; i++ {
		req, _ := http.NewRequest("POST", srv.URL+"/v1/decide", bytes.NewReader(body))
		req.Header.Set(RequestIDHeader, fmt.Sprintf("t-%03d", i))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("decide %d: status %d", i, resp.StatusCode)
		}
	}

	var st obs.SLOStatus
	sresp, err := http.Get(srv.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.Total != n || len(st.Objectives) == 0 {
		t.Errorf("/debug/slo: total %d objectives %d, want %d/>0", st.Total, len(st.Objectives), n)
	}

	var exs []Exemplar
	eresp, err := http.Get(srv.URL + "/debug/exemplars")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(eresp.Body).Decode(&exs); err != nil {
		t.Fatal(err)
	}
	eresp.Body.Close()
	if len(exs) != 4 {
		t.Errorf("/debug/exemplars: %d exemplars, want ring of 4", len(exs))
	}
	for _, ex := range exs {
		if ex.ID == "" || len(ex.Observation) == 0 {
			t.Errorf("exemplar missing id or observation: %+v", ex)
		}
	}

	tresp, err := http.Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	var tbuf bytes.Buffer
	tbuf.ReadFrom(tresp.Body)
	tresp.Body.Close()
	if !strings.Contains(tbuf.String(), `"request"`) || !strings.Contains(tbuf.String(), `"t-000"`) {
		t.Errorf("/debug/trace lacks tagged request spans:\n%.400s", tbuf.String())
	}

	spans, _ := tr.Snapshot()
	roots := 0
	for _, s := range spans {
		if s.Name == "request" {
			roots++
			if s.Req == "" {
				t.Error("request span without req id")
			}
		}
	}
	if roots != n {
		t.Errorf("%d request root spans, want %d", roots, n)
	}
	if tel.Started() != int64(n) || tel.Finished() != int64(n) {
		t.Errorf("telemetry accounting: started %d finished %d, want %d/%d",
			tel.Started(), tel.Finished(), n, n)
	}
}

// postWire posts a binary-wire request body, optionally asking for a
// binary response via Accept.
func postWire(t *testing.T, url string, body []byte, acceptWire bool) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url+"/v1/decide", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", WireContentType)
	if acceptWire {
		req.Header.Set("Accept", WireContentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestHTTPUnknownContentType: a Content-Type the service does not speak is
// refused with 415 and a JSON error body naming the supported types — not
// a misleading JSON parse 400.
func TestHTTPUnknownContentType(t *testing.T) {
	b := NewBatcher(BatcherConfig{MaxBatch: 1},
		func() Decider { return &echoDecider{} })
	srv := httptest.NewServer(NewMux(b, 1, "f64", NewSessionCache(0), nil, nil))
	defer srv.Close()
	defer b.Close()

	body, _ := json.Marshal(mark(1))
	resp, err := http.Post(srv.URL+"/v1/decide", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("415 body is not JSON: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("text/plain: status %d, want 415", resp.StatusCode)
	}
	if e.RequestID == "" || !strings.Contains(e.Error, WireContentType) {
		t.Errorf("415 body should carry request id and name the binary type: %+v", e)
	}

	// Parameters on a supported type are fine.
	resp2, err := http.Post(srv.URL+"/v1/decide", "application/json; charset=utf-8", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("json with charset parameter: status %d, want 200", resp2.StatusCode)
	}

	// An absent Content-Type keeps the pre-binary default (JSON).
	req, _ := http.NewRequest("POST", srv.URL+"/v1/decide", bytes.NewReader(body))
	req.Header.Del("Content-Type")
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Errorf("no content type: status %d, want 200", resp3.StatusCode)
	}
}

// TestHTTPBinaryWire drives the binary protocol end to end over HTTP:
// full snapshots (JSON and binary responses), the session-affine delta
// flow, hash-mismatch and eviction resyncs, and malformed-payload
// rejection.
func TestHTTPBinaryWire(t *testing.T) {
	b := NewBatcher(BatcherConfig{MaxBatch: 1},
		func() Decider { return &echoDecider{} })
	// Capacity 1 makes eviction deterministic: registering a second
	// session always evicts the first.
	srv := httptest.NewServer(NewMux(b, 1, "f64", NewSessionCache(1), nil, nil))
	defer srv.Close()
	defer b.Close()

	frames := mark(7).Frames

	// Binary request, JSON response.
	resp, out := postWire(t, srv.URL, AppendFull(nil, nil, frames), false)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary full: status %d, body %s", resp.StatusCode, out)
	}
	var dr DecideResponse
	if err := json.Unmarshal(out, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Accel != 7 {
		t.Errorf("binary full echoed %v, want 7", dr.Accel)
	}

	// Binary request, binary response via Accept.
	resp, out = postWire(t, srv.URL, AppendFull(nil, nil, frames), true)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != WireContentType {
		t.Fatalf("binary/binary: status %d content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var bdr DecideResponse
	if err := DecodeResponse(out, &bdr); err != nil {
		t.Fatalf("binary response: %v", err)
	}
	if bdr.Accel != 7 || bdr.RequestID == "" {
		t.Errorf("binary response: accel %v id %q", bdr.Accel, bdr.RequestID)
	}

	// Session flow: full registers, delta advances.
	resp, out = postWire(t, srv.URL, AppendFull(nil, []byte("veh-1"), frames), false)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session full: status %d, body %s", resp.StatusCode, out)
	}
	next := mark(9).Frames
	resp, out = postWire(t, srv.URL, AppendDelta(nil, []byte("veh-1"), HashFrames(frames), next), false)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta: status %d, body %s", resp.StatusCode, out)
	}
	var ddr DecideResponse
	if err := json.Unmarshal(out, &ddr); err != nil {
		t.Fatal(err)
	}
	if ddr.Accel != 9 {
		t.Errorf("delta echoed %v, want 9 (the advanced snapshot)", ddr.Accel)
	}

	// A wrong base hash is a 409 resend-full signal with a JSON body.
	resp, out = postWire(t, srv.URL, AppendDelta(nil, []byte("veh-1"), 0xBAD, mark(1).Frames), true)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale delta: status %d, want 409", resp.StatusCode)
	}
	var e errorResponse
	if err := json.Unmarshal(out, &e); err != nil || e.RequestID == "" {
		t.Errorf("409 body must be JSON with a request id even under Accept: %s (%v)", out, err)
	}

	// Eviction: a second session displaces veh-1 (cap 1); its next delta
	// resyncs, and a full resend recovers.
	if resp, out := postWire(t, srv.URL, AppendFull(nil, []byte("veh-2"), frames), false); resp.StatusCode != http.StatusOK {
		t.Fatalf("second session: status %d body %s", resp.StatusCode, out)
	}
	if resp, _ := postWire(t, srv.URL, AppendDelta(nil, []byte("veh-1"), HashFrames(next), next), false); resp.StatusCode != http.StatusConflict {
		t.Fatalf("evicted delta: status %d, want 409", resp.StatusCode)
	}
	if resp, _ := postWire(t, srv.URL, AppendFull(nil, []byte("veh-1"), next), false); resp.StatusCode != http.StatusOK {
		t.Fatal("full resend after eviction failed")
	}
	if resp, _ := postWire(t, srv.URL, AppendDelta(nil, []byte("veh-1"), HashFrames(next), next), false); resp.StatusCode != http.StatusOK {
		t.Fatal("delta after recovery failed")
	}

	// Corrupt binary payloads are 400s, never panics.
	if resp, _ := postWire(t, srv.URL, []byte{0xFF, 0x01, 0x02}, false); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("corrupt binary: status %d, want 400", resp.StatusCode)
	}
	// A frame-count violation at validate time is a 400 too.
	if resp, _ := postWire(t, srv.URL, AppendFull(nil, nil, wireTestFrames(3)), false); resp.StatusCode != http.StatusBadRequest {
		t.Error("3-frame binary snapshot accepted against z=1")
	}
	// Non-finite states are rejected on the binary wire, full or spliced.
	nan := mark(7).Frames
	nan[0].AV.Lon = math.NaN()
	resp, out = postWire(t, srv.URL, AppendFull(nil, nil, nan), true)
	wantRejected(t, "binary NaN AV state", resp, out)
	if resp, out := postWire(t, srv.URL, AppendFull(nil, []byte("veh-3"), frames), false); resp.StatusCode != http.StatusOK {
		t.Fatalf("session veh-3: status %d body %s", resp.StatusCode, out)
	}
	inf := mark(8).Frames
	inf[0].Vehicles = []Vehicle{{ID: 2, State: world.State{V: math.Inf(1)}}}
	resp, out = postWire(t, srv.URL, AppendDelta(nil, []byte("veh-3"), HashFrames(frames), inf), true)
	wantRejected(t, "delta +Inf vehicle speed", resp, out)

	// The session cache surfaces in /healthz.
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if h.Sessions == nil || h.Sessions.Cap != 1 || h.Sessions.Resyncs < 2 || h.Sessions.Evictions < 1 {
		t.Errorf("healthz sessions = %+v, want cap 1, ≥2 resyncs, ≥1 eviction", h.Sessions)
	}
}

// TestHTTPBinaryBodyLimit: the binary path honors the same body cap as
// JSON.
func TestHTTPBinaryBodyLimit(t *testing.T) {
	b := NewBatcher(BatcherConfig{MaxBatch: 1},
		func() Decider { return &echoDecider{} })
	srv := httptest.NewServer(NewMux(b, 1, "f64", NewSessionCache(0), nil, nil))
	defer srv.Close()
	defer b.Close()

	huge := make([]byte, maxBodyBytes+16)
	huge[0] = 1 // plausible version byte; size alone must reject it
	resp, _ := postWire(t, srv.URL, huge, false)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized binary body: status %d, want 413", resp.StatusCode)
	}
}
