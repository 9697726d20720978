package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strings"
	"sync"
	"time"

	"head/internal/obs"
)

// maxBodyBytes bounds a decide request body; an honest z-frame snapshot is
// a few KB (and a delta request a few hundred bytes).
const maxBodyBytes = 1 << 20

// RequestIDHeader carries the request id end to end: clients may set it
// (cmd/headload stamps every request), ingress assigns one when absent,
// and every response — success or error — echoes it back, so fleet
// clients can correlate failures and server-side spans with their own
// timelines.
const RequestIDHeader = "X-Request-ID"

// DecideResponse is the body of POST /v1/decide: the decision plus the
// latency attribution of the micro-batch it rode in.
type DecideResponse struct {
	Decision
	// RequestID echoes the request's id (client-provided or
	// server-assigned) for correlation with traces and exemplars.
	RequestID string `json:"request_id"`
	// BatchSize is how many requests shared the batched forward.
	BatchSize int `json:"batch_size"`
	// The server-side phase breakdown, microseconds: QueueMicros is
	// enqueue → a replica worker taking the batch off the queue (the wait
	// for a free replica), SealMicros is that take → the batched forward
	// starting, InferMicros the batched forwards themselves, and
	// ReplyMicros the reply handoff measured up to response
	// serialization. DecideMicros = SealMicros + InferMicros (the
	// pre-telemetry aggregate, kept for continuity).
	QueueMicros  int64 `json:"queue_us"`
	SealMicros   int64 `json:"seal_us"`
	InferMicros  int64 `json:"infer_us"`
	ReplyMicros  int64 `json:"reply_us"`
	DecideMicros int64 `json:"decide_us"`
}

// healthResponse is the body of GET /healthz.
type healthResponse struct {
	Status   string  `json:"status"`
	UptimeS  float64 `json:"uptime_s"`
	Batch    int     `json:"batch"`
	Replicas int     `json:"replicas"`
	Frames   int     `json:"frames"`
	Backend  string  `json:"backend"`
	// Sessions is the delta-protocol session cache's live state (absent
	// when the server runs without one).
	Sessions *SessionStats `json:"sessions,omitempty"`
}

// errorResponse is every non-200 body. RequestID lets a fleet client tie
// the failure to its own request log even when the body is all it kept.
// Errors are always JSON, whatever wire form the request used: a client
// that failed to speak the binary protocol must still be able to read why.
type errorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// bufPool recycles the mux's marshal/read scratch: response bodies (JSON
// and binary) are encoded into a pooled buffer and written in one Write,
// and binary request bodies are read into one. Steady state, the reply
// path allocates no buffer bytes.
var bufPool = sync.Pool{New: func() any { return new(byteBuf) }}

type byteBuf struct {
	b   []byte
	buf bytes.Buffer
}

// NewMux builds the decision service's HTTP surface: POST /v1/decide and
// GET /healthz over the batcher, plus — when reg is non-nil — the shared
// observability endpoints (/metrics, /debug/pprof/*, /debug/vars) via
// obs.Mount, so one listener serves decisions and their live metrics.
// The decide route negotiates its wire form per request: Content-Type
// application/json (or none) is parsed as the JSON snapshot, Content-Type
// application/x-head-obs as the binary form — full snapshots or
// session-affine deltas resolved against sessions (nil refuses every
// delta with a 409 resend-full) — and any other type is refused with 415.
// A request whose Accept names the binary type gets a binary response.
// tel (nil disables) attaches request telemetry and its debug surfaces:
// /debug/slo (rolling SLO evaluation), /debug/trace (request span dump,
// Chrome trace JSON), /debug/exemplars (current tail captures), and
// /debug/quality (decision-drift status vs the behavioral baseline).
// z is the observation history length requests must carry; backend is the
// forward precision /healthz reports, "f64" since every forward runs in
// float64 (the field stays so the health schema does not change).
func NewMux(b *Batcher, z int, backend string, sessions *SessionCache, reg *obs.Registry, tel *Telemetry) *http.ServeMux {
	mux := http.NewServeMux()
	start := time.Now()
	wm := &wireMetrics{}
	if reg != nil {
		wm.json = reg.Counter("serve.wire_json")
		wm.binary = reg.Counter("serve.wire_binary")
		wm.delta = reg.Counter("serve.wire_delta")
		wm.resyncs = reg.Counter("serve.wire_resyncs")
		wm.rejected = reg.Counter("serve.wire_rejected")
	}
	mux.HandleFunc("POST /v1/decide", func(w http.ResponseWriter, r *http.Request) {
		handleDecide(w, r, b, z, sessions, wm, tel)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		cfg := b.Config()
		writeJSON(w, http.StatusOK, healthResponse{
			Status:   "ok",
			UptimeS:  time.Since(start).Seconds(),
			Batch:    cfg.MaxBatch,
			Replicas: cfg.Replicas,
			Frames:   z,
			Backend:  backend,
			Sessions: sessions.Stats(),
		})
	})
	if reg != nil {
		obs.Mount(mux, reg)
	}
	if slo := tel.SLO(); slo != nil {
		mux.HandleFunc("GET /debug/slo", func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, http.StatusOK, slo.Status())
		})
	}
	if tr := tel.Tracer(); tr != nil {
		mux.Handle("GET /debug/trace", tr)
	}
	if ring := tel.Exemplars(); ring != nil {
		mux.HandleFunc("GET /debug/exemplars", func(w http.ResponseWriter, _ *http.Request) {
			exs := ring.Snapshot()
			if exs == nil {
				exs = []Exemplar{}
			}
			writeJSON(w, http.StatusOK, exs)
		})
	}
	if qf := tel.Quality(); qf != nil && qf.Monitor != nil {
		mux.HandleFunc("GET /debug/quality", func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, http.StatusOK, qf.Monitor.Status())
		})
	}
	return mux
}

// wireMetrics counts decide requests per wire form plus the two refusal
// paths (delta resyncs, unsupported media types).
type wireMetrics struct {
	json, binary, delta, resyncs, rejected *obs.Counter
}

func (m *wireMetrics) inc(c *obs.Counter) {
	if m != nil && c != nil {
		c.Inc()
	}
}

// requestMediaType extracts the request's media type, tolerating
// parameters (application/json; charset=utf-8) and absence (treated as
// JSON, the pre-binary default every existing client relies on).
func requestMediaType(r *http.Request) string {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return "application/json"
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return ct
	}
	return mt
}

// decodeWireBody reads and decodes a binary request body, resolving deltas
// against the session cache. It returns the full observation to serve and
// the wire kind, or an error (resync errors unwrap to ErrResync).
func decodeWireBody(body []byte, sessions *SessionCache) (*Observation, byte, error) {
	// Fresh frame storage per request: full-snapshot frames may be handed
	// to the session cache and delta frames spliced into cache-owned
	// snapshots, so this storage must never be recycled.
	req, err := DecodeRequest(body, nil)
	if err != nil {
		return nil, 0, err
	}
	switch req.Kind {
	case WireFull:
		sessions.Store(string(req.Session), req.Frames)
		return &Observation{Frames: req.Frames}, WireFull, nil
	case WireDelta:
		frames, err := sessions.Advance(string(req.Session), req.BaseHash, req.Frames)
		if err != nil {
			return nil, WireDelta, err
		}
		return &Observation{Frames: frames}, WireDelta, nil
	default:
		return nil, req.Kind, fmt.Errorf("serve: unknown wire request kind %d", req.Kind)
	}
}

func handleDecide(w http.ResponseWriter, r *http.Request, b *Batcher, z int,
	sessions *SessionCache, wm *wireMetrics, tel *Telemetry) {
	rt := tel.Begin(r.Header.Get(RequestIDHeader))
	w.Header().Set(RequestIDHeader, rt.ID)
	fail := func(status int, err error, o *Observation, res Result) {
		writeJSON(w, status, errorResponse{Error: err.Error(), RequestID: rt.ID})
		rt.Finish(o, res, status, err)
	}

	// Attention rows are diagnostic weight (dozens of floats per response);
	// clients that want them opt in with ?attention=1 so the hot fleet path
	// doesn't pay their serialization.
	wantAttention := r.URL.Query().Get("attention") != ""
	// A client that accepts the binary type gets its response in it; error
	// bodies stay JSON either way.
	wantBinary := strings.Contains(r.Header.Get("Accept"), WireContentType)

	var o *Observation
	switch mt := requestMediaType(r); mt {
	case "application/json":
		wm.inc(wm.json)
		var jo Observation
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err := dec.Decode(&jo); err != nil {
			// An over-cap body is the client's payload being too large, not a
			// malformed one: 413 tells it to shrink, not to retry verbatim.
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				fail(http.StatusRequestEntityTooLarge, err, nil, Result{})
				return
			}
			fail(http.StatusBadRequest, errors.New("decode observation: "+err.Error()), nil, Result{})
			return
		}
		o = &jo
	case WireContentType:
		bb := bufPool.Get().(*byteBuf)
		body, err := readBody(http.MaxBytesReader(w, r.Body, maxBodyBytes), bb.b[:0])
		bb.b = body
		if err != nil {
			bufPool.Put(bb)
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				fail(http.StatusRequestEntityTooLarge, err, nil, Result{})
				return
			}
			fail(http.StatusBadRequest, errors.New("read observation: "+err.Error()), nil, Result{})
			return
		}
		var kind byte
		o, kind, err = decodeWireBody(body, sessions)
		bufPool.Put(bb)
		if kind == WireDelta {
			wm.inc(wm.delta)
		} else {
			wm.inc(wm.binary)
		}
		if err != nil {
			if errors.Is(err, ErrResync) {
				// 409: the session base diverged (or was evicted). The body
				// says so; the client's recovery is a full-snapshot resend.
				wm.inc(wm.resyncs)
				fail(http.StatusConflict, err, nil, Result{})
				return
			}
			fail(http.StatusBadRequest, errors.New("decode observation: "+err.Error()), nil, Result{})
			return
		}
	default:
		// An unknown media type is a protocol mismatch, not a malformed
		// body: 415 names the supported types instead of a misleading JSON
		// parse error.
		wm.inc(wm.rejected)
		fail(http.StatusUnsupportedMediaType,
			fmt.Errorf("unsupported content type %q (use application/json or %s)", mt, WireContentType),
			nil, Result{})
		return
	}

	if err := o.Validate(z); err != nil {
		fail(http.StatusBadRequest, err, o, Result{})
		return
	}
	o.ReturnAttention = wantAttention
	rt.MarkDecoded()
	res, err := b.Submit(r.Context(), o)
	switch {
	case err == nil:
	case errors.Is(err, ErrClosed):
		fail(http.StatusServiceUnavailable, err, o, res)
		return
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client went away or timed out; 503 tells retrying proxies
		// the truth without inventing a status for a dead peer.
		fail(http.StatusServiceUnavailable, err, o, res)
		return
	default:
		fail(http.StatusInternalServerError, err, o, res)
		return
	}
	if !wantAttention {
		res.Decision.Attention = nil
	}
	dr := DecideResponse{
		Decision:     res.Decision,
		RequestID:    rt.ID,
		BatchSize:    res.BatchSize,
		QueueMicros:  res.Flushed.Sub(res.Enqueued).Microseconds(),
		SealMicros:   res.InferStart.Sub(res.Flushed).Microseconds(),
		InferMicros:  res.InferDone.Sub(res.InferStart).Microseconds(),
		ReplyMicros:  time.Since(res.InferDone).Microseconds(),
		DecideMicros: res.InferDone.Sub(res.Flushed).Microseconds(),
	}
	rt.MarkEncoding()
	if wantBinary {
		writeWire(w, &dr)
	} else {
		writeJSON(w, http.StatusOK, dr)
	}
	// Finish after the response is written, so the recorded request span
	// and the encode phase cover serialization too.
	rt.Finish(o, res, http.StatusOK, nil)
}

// readBody drains r into dst (reusing its capacity) and returns the filled
// slice — io.ReadAll without the fresh allocation per request.
func readBody(r io.Reader, dst []byte) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// writeWire encodes a 200 response in the binary wire form from a pooled
// buffer.
func writeWire(w http.ResponseWriter, dr *DecideResponse) {
	bb := bufPool.Get().(*byteBuf)
	bb.b = AppendResponse(bb.b[:0], dr)
	w.Header().Set("Content-Type", WireContentType)
	w.WriteHeader(http.StatusOK)
	w.Write(bb.b)
	bufPool.Put(bb)
}

// writeJSON marshals v into a pooled buffer and writes it in one shot, so
// the reply path reuses its marshal scratch across requests (and responses
// carry an exact Content-Length instead of chunking).
func writeJSON(w http.ResponseWriter, status int, v any) {
	bb := bufPool.Get().(*byteBuf)
	bb.buf.Reset()
	if err := json.NewEncoder(&bb.buf).Encode(v); err != nil {
		bufPool.Put(bb)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(bb.buf.Bytes())
	bufPool.Put(bb)
}
