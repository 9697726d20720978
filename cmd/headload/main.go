// Command headload drives a running headserve instance with a synthetic
// fleet: every session owns a private traffic environment, snapshots its
// sensor history each step, posts it to POST /v1/decide, and executes the
// served maneuver — the full closed loop a real vehicle client would run,
// at whatever concurrency the flag asks for.
//
// After a warm-up phase it measures a fixed window and prints three lines:
// throughput, error count, exact latency percentiles and mean micro-batch
// occupancy; the queue/infer/net latency breakdown; and bytes-per-request
// percentiles with delta resync counts. It exits non-zero when any
// measured request failed.
//
// -wire selects the request encoding: json (the default), binary (the
// application/x-head-obs full-snapshot form with binary responses), or
// delta (session-affine: each session registers a full snapshot once,
// then sends only its newest frame plus the base-snapshot hash; on a 409
// resend-full — cache eviction, server restart, episode reset — the
// client transparently retries with a full snapshot and counts a resync).
//
// Every request carries an X-Request-ID; the server echoes it and reports
// its phase timestamps in the response envelope, so the client can separate
// what it observed (end-to-end latency) from what the server accounted for
// (batch wait, seal, inference, reply) — the remainder is network plus
// client overhead. The breakdown line prints per-component percentiles, and
// -trace-out writes a joined Chrome trace (one lane per session, each
// measured request a span tree: queue / batch_seal / replica_infer / reply
// from the server envelope plus the network remainder) that headtrace
// analyzes and -check verifies.
//
// Two modes: -mode closed (default) runs the full closed loop — each
// session steps its own simulator between requests, so the measured rate
// includes client-side sensing and physics and the request stream has the
// think-time of a real fleet. -mode replay pre-captures a chain of
// consecutive servable observations and fires them back-to-back with no
// simulation in between, which saturates the service and isolates ITS
// capacity — the mode for comparing server configurations, since in
// closed-loop mode the client-side simulator (sharing the machine) is the
// bottleneck, not the server.
//
// Usage:
//
//	headload -url http://localhost:8100 [-sessions 64] [-duration 5s] [-warmup 1s]
//	headload ... [-mode closed|replay] [-wire json|binary|delta] [-scale quick|record|paper] [-seed N]
//	headload ... -trace-out trace.json                          # joined client+server trace
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"head/internal/experiments"
	"head/internal/head"
	"head/internal/obs"
	"head/internal/obs/span"
	"head/internal/parallel"
	"head/internal/serve"
	"head/internal/world"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("headload: ")
	var (
		url       = flag.String("url", "http://localhost:8100", "headserve base URL")
		sessions  = flag.Int("sessions", 64, "concurrent vehicle sessions")
		duration  = flag.Duration("duration", 5*time.Second, "measured window")
		warmup    = flag.Duration("warmup", time.Second, "unmeasured warm-up before the window")
		timeout   = flag.Duration("timeout", 5*time.Second, "per-request timeout")
		mode      = flag.String("mode", "closed", "closed = full sense/decide/act loop per session; replay = fire pre-captured observations back-to-back (server capacity)")
		wire      = flag.String("wire", "json", "request encoding: json, binary (full binary snapshots), or delta (session-affine newest-frame deltas with 409 resend-full recovery)")
		scaleName = flag.String("scale", "quick", "fleet environment scale: quick, record or paper")
		seed      = flag.Int64("seed", 1, "base seed for the session environments")
		density   = flag.Float64("density", 0, "override the fleet environments' traffic density (0 keeps the scale's value) — shifts the observation distribution, e.g. to exercise the server's drift detection")
		traceOut  = flag.String("trace-out", "", "write a joined client+server Chrome trace of the measured requests here (empty disables)")
	)
	flag.Parse()

	var s experiments.Scale
	switch *scaleName {
	case "quick":
		s = experiments.Quick()
	case "record":
		s = experiments.Record()
	case "paper":
		s = experiments.Paper()
	default:
		log.Fatalf("unknown scale %q (want quick, record or paper)", *scaleName)
	}
	if *density > 0 {
		s.Density = *density
	}
	cfg := s.EnvConfig()
	switch *wire {
	case "json", "binary", "delta":
	default:
		log.Fatalf("unknown wire %q (want json, binary or delta)", *wire)
	}

	client := &http.Client{
		Timeout: *timeout,
		Transport: &http.Transport{
			MaxIdleConns:        *sessions + 8,
			MaxIdleConnsPerHost: *sessions + 8,
		},
	}

	// recording flips on after warm-up and off at the end of the window;
	// sessions only account requests completed while it is up.
	var recording atomic.Bool
	var stop atomic.Bool
	reg := obs.NewRegistry()
	latHist := reg.Histogram("load.latency_s",
		0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1, 2.5)

	var pool []serve.Observation
	switch *mode {
	case "closed":
	case "replay":
		var err error
		if pool, err = captureObservations(cfg, *seed, 16); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown mode %q (want closed or replay)", *mode)
	}

	keepRecords := *traceOut != ""
	results := make([]sessionResult, *sessions)
	var wg sync.WaitGroup
	for i := 0; i < *sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lc := &loadClient{
				client: client, base: *url, wire: *wire,
				session: fmt.Sprintf("ld-%03d", i),
			}
			if pool != nil {
				results[i] = runReplaySession(lc, pool, i, keepRecords, &recording, &stop, latHist)
				return
			}
			results[i] = runSession(lc, cfg, i, keepRecords,
				parallel.Rand(*seed, int64(i)), &recording, &stop, latHist)
		}(i)
	}

	time.Sleep(*warmup)
	recording.Store(true)
	windowStart := time.Now()
	time.Sleep(*duration)
	recording.Store(false)
	window := time.Since(windowStart)
	stop.Store(true)
	wg.Wait()

	var lats, queues, infers, nets, sizes []float64
	var requests, errs, resyncs int64
	var batchSum float64
	for _, r := range results {
		lats = append(lats, r.latenciesMs...)
		queues = append(queues, r.queueMs...)
		infers = append(infers, r.inferMs...)
		nets = append(nets, r.netMs...)
		sizes = append(sizes, r.bytes...)
		requests += r.requests
		errs += r.errors
		resyncs += r.resyncs
		batchSum += r.batchSum
	}
	if requests == 0 {
		log.Fatalf("no requests completed in the %v window (%d errors) — is headserve up at %s?", window, errs, *url)
	}
	sort.Float64s(lats)
	sort.Float64s(queues)
	sort.Float64s(infers)
	sort.Float64s(nets)
	sort.Float64s(sizes)
	fmt.Printf("%s: %d sessions, %d requests in %.2fs = %.0f rps, p50 %.2fms p90 %.2fms p99 %.2fms max %.2fms, avg batch %.2f, %d errors (hist p99 %.2fms)\n",
		*mode, *sessions, requests, window.Seconds(), float64(requests)/window.Seconds(),
		pct(lats, 0.50), pct(lats, 0.90), pct(lats, 0.99), lats[len(lats)-1],
		batchSum/float64(requests), errs, latHist.Quantile(0.99)*1e3)
	fmt.Printf("  breakdown: queue p50 %.2fms p99 %.2fms | infer p50 %.2fms p99 %.2fms | net p50 %.2fms p99 %.2fms\n",
		pct(queues, 0.50), pct(queues, 0.99), pct(infers, 0.50), pct(infers, 0.99), pct(nets, 0.50), pct(nets, 0.99))
	fmt.Printf("  wire %s: bytes/req p50 %.0f p99 %.0f, %d resyncs (%.4f/req)\n",
		*wire, pct(sizes, 0.50), pct(sizes, 0.99), resyncs, float64(resyncs)/float64(requests))
	if *traceOut != "" {
		if err := writeJoinedTrace(*traceOut, results); err != nil {
			log.Fatal(err)
		}
		log.Printf("joined trace written to %s", *traceOut)
	}
	if errs > 0 {
		log.Fatalf("%d of %d measured requests failed", errs, requests+errs)
	}
}

type sessionResult struct {
	latenciesMs []float64
	// Per-request server-vs-client decomposition (ms): queueMs is the
	// server-reported batch wait, inferMs the seal + batched forwards, and
	// netMs what the server never saw — network, serialization, and client
	// overhead (end-to-end minus the server-accounted phases).
	queueMs []float64
	inferMs []float64
	netMs   []float64
	// bytes is the request-body size of every measured request (including
	// any full resend a resync forced — the retry cost is real traffic).
	bytes    []float64
	records  []reqRecord
	requests int64
	errors   int64
	resyncs  int64
	batchSum float64
}

// reqRecord is one measured request retained for the joined trace: the
// client-observed start and end-to-end latency plus the server's phase
// attribution from the response envelope.
type reqRecord struct {
	id      string
	at      time.Time
	e2eMs   float64
	queueUs int64
	sealUs  int64
	inferUs int64
	replyUs int64
}

// account records one measured request into the session's distributions.
func (r *sessionResult) account(dr serve.DecideResponse, id string, t0 time.Time,
	lat time.Duration, sent int, keepRecords bool, latHist *obs.Histogram) {
	latMs := lat.Seconds() * 1e3
	r.requests++
	r.latenciesMs = append(r.latenciesMs, latMs)
	r.bytes = append(r.bytes, float64(sent))
	r.batchSum += float64(dr.BatchSize)
	latHist.Observe(lat.Seconds())
	serverMs := float64(dr.QueueMicros+dr.SealMicros+dr.InferMicros+dr.ReplyMicros) / 1e3
	r.queueMs = append(r.queueMs, float64(dr.QueueMicros)/1e3)
	r.inferMs = append(r.inferMs, float64(dr.SealMicros+dr.InferMicros)/1e3)
	r.netMs = append(r.netMs, max(latMs-serverMs, 0))
	if keepRecords {
		r.records = append(r.records, reqRecord{
			id: id, at: t0, e2eMs: latMs,
			queueUs: dr.QueueMicros, sealUs: dr.SealMicros,
			inferUs: dr.InferMicros, replyUs: dr.ReplyMicros,
		})
	}
}

// loadClient is one session's view of the wire protocol: it encodes
// snapshots in the selected form, tracks the delta base, and transparently
// recovers from 409 resend-full responses.
type loadClient struct {
	client  *http.Client
	base    string
	wire    string
	session string
	// prev is the full snapshot the server's session cache should hold
	// after the last successful request (delta mode only).
	prev    []serve.Frame
	scratch []byte
}

// errResync marks a 409 "resend full" response internally.
var errResync = fmt.Errorf("resend full")

// decide sends one snapshot in the client's wire form and returns the
// decision, the request-body bytes actually sent (summed across a resync
// retry), and how many 409 resyncs the exchange hit.
func (c *loadClient) decide(id string, frames []serve.Frame) (serve.DecideResponse, int, int64, error) {
	switch c.wire {
	case "json":
		body, err := json.Marshal(serve.Observation{Frames: frames})
		if err != nil {
			return serve.DecideResponse{}, 0, 0, err
		}
		dr, err := c.post(id, "application/json", body)
		return dr, len(body), 0, err
	case "binary":
		c.scratch = serve.AppendFull(c.scratch[:0], nil, frames)
		dr, err := c.post(id, serve.WireContentType, c.scratch)
		return dr, len(c.scratch), 0, err
	case "delta":
		sent := 0
		if c.prev != nil && len(c.prev) == len(frames) {
			c.scratch = serve.AppendDelta(c.scratch[:0], []byte(c.session), serve.HashFrames(c.prev), frames[len(frames)-1:])
			sent += len(c.scratch)
			dr, err := c.post(id, serve.WireContentType, c.scratch)
			if err == nil {
				c.prev = frames
				return dr, sent, 0, nil
			}
			if err != errResync {
				return dr, sent, 0, err
			}
			// Base diverged (eviction, restart, or an episode reset broke
			// the one-step chain): fall through to a full resend.
		}
		c.scratch = serve.AppendFull(c.scratch[:0], []byte(c.session), frames)
		sent += len(c.scratch)
		dr, err := c.post(id, serve.WireContentType, c.scratch)
		var resyncs int64
		if sent > len(c.scratch) {
			resyncs = 1
		}
		if err == nil {
			c.prev = frames
		} else {
			c.prev = nil
		}
		return dr, sent, resyncs, err
	default:
		return serve.DecideResponse{}, 0, 0, fmt.Errorf("unknown wire %q", c.wire)
	}
}

func (c *loadClient) post(id, contentType string, body []byte) (serve.DecideResponse, error) {
	var dr serve.DecideResponse
	req, err := http.NewRequest("POST", c.base+"/v1/decide", bytes.NewReader(body))
	if err != nil {
		return dr, err
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set(serve.RequestIDHeader, id)
	binaryReply := contentType == serve.WireContentType
	if binaryReply {
		req.Header.Set("Accept", serve.WireContentType)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return dr, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusConflict:
		io.Copy(io.Discard, resp.Body)
		return dr, errResync
	case resp.StatusCode != http.StatusOK:
		return dr, fmt.Errorf("decide: status %d", resp.StatusCode)
	}
	if binaryReply {
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return dr, err
		}
		return dr, serve.DecodeResponse(data, &dr)
	}
	return dr, json.NewDecoder(resp.Body).Decode(&dr)
}

// runSession closes the loop for one synthetic vehicle: sense locally,
// decide remotely, execute the served maneuver, repeat across episodes
// until stop. The environment has no local predictor — perception
// enhancement happens server-side, which is the point of the service.
func runSession(lc *loadClient, cfg head.EnvConfig, si int, keepRecords bool,
	rng *rand.Rand, recording, stop *atomic.Bool, latHist *obs.Histogram) sessionResult {
	var res sessionResult
	env := head.NewEnv(cfg, nil, rng)
	env.Reset()
	coast := world.Maneuver{B: world.LaneKeep, A: 0}
	for n := 0; !stop.Load(); n++ {
		if env.Done() {
			env.Reset()
			continue
		}
		o := serve.Snapshot(env.SensorHistory())
		if o.Validate(cfg.Sensor.Z) != nil {
			// Sensor still warming up: coast until the history fills.
			env.StepManeuver(coast)
			continue
		}
		id := fmt.Sprintf("ld-%03d-%06d", si, n)
		t0 := time.Now()
		dr, sent, resyncs, err := lc.decide(id, o.Frames)
		lat := time.Since(t0)
		if rec := recording.Load(); err != nil {
			if rec {
				res.errors++
			}
			env.StepManeuver(coast)
			continue
		} else if rec {
			res.resyncs += resyncs
			res.account(dr, id, t0, lat, sent, keepRecords, latHist)
		}
		env.StepManeuver(dr.Maneuver())
	}
	return res
}

// captureObservations rolls one offline environment (coasting; no server
// involved) and collects a chain of n consecutive servable sensor
// snapshots — each exactly one simulator step after the previous, so
// replay delta sessions can walk the chain with newest-frame deltas. A
// servability gap (episode end, sensor warm-up) restarts the chain.
func captureObservations(cfg head.EnvConfig, seed int64, n int) ([]serve.Observation, error) {
	env := head.NewEnv(cfg, nil, rand.New(rand.NewSource(seed)))
	env.Reset()
	coast := world.Maneuver{B: world.LaneKeep, A: 0}
	var pool []serve.Observation
	for len(pool) < n {
		if env.Done() {
			env.Reset()
			pool = pool[:0]
		}
		o := serve.Snapshot(env.SensorHistory())
		if o.Validate(cfg.Sensor.Z) == nil {
			if k := len(pool); k > 0 &&
				!reflect.DeepEqual(pool[k-1].Frames[1:], o.Frames[:len(o.Frames)-1]) {
				// Not one step after the previous capture: restart the chain.
				pool = pool[:0]
			}
			pool = append(pool, o)
		} else if len(pool) > 0 {
			pool = pool[:0]
		}
		env.StepManeuver(coast)
	}
	return pool, nil
}

// runReplaySession fires pool observations back-to-back with no simulation
// between requests, measuring the service's capacity rather than the
// closed loop's. In delta mode the session walks the pool chain in order —
// full snapshot at each wrap, newest-frame deltas in between.
func runReplaySession(lc *loadClient, pool []serve.Observation, offset int, keepRecords bool,
	recording, stop *atomic.Bool, latHist *obs.Histogram) sessionResult {
	var res sessionResult
	// Delta sessions must walk the chain from its head; stateless wire
	// forms stagger their start across the pool instead.
	start := offset
	if lc.wire == "delta" {
		start = 0
	}
	for i := 0; !stop.Load(); i++ {
		idx := (start + i) % len(pool)
		if lc.wire == "delta" && idx == 0 {
			// Deliberate re-base at every wrap: the chain relation does not
			// hold from the last pool entry back to the first.
			lc.prev = nil
		}
		id := fmt.Sprintf("ld-%03d-%06d", offset, i)
		t0 := time.Now()
		dr, sent, resyncs, err := lc.decide(id, pool[idx].Frames)
		lat := time.Since(t0)
		if rec := recording.Load(); err != nil {
			if rec {
				res.errors++
			}
		} else if rec {
			res.resyncs += resyncs
			res.account(dr, id, t0, lat, sent, keepRecords, latHist)
		}
	}
	return res
}

// writeJoinedTrace joins the client and server views of every measured
// request into one Chrome trace: per session lane, each request is a span
// tree whose queue / batch_seal / replica_infer / reply children carry the
// server-reported phase durations laid out from the client's send
// timestamp, with the unaccounted remainder as a closing network span —
// so the tree sums exactly to the client-observed end-to-end latency and
// headtrace -check's request accounting identity closes.
func writeJoinedTrace(path string, results []sessionResult) error {
	var earliest time.Time
	total := 0
	for _, r := range results {
		total += len(r.records)
		for _, rec := range r.records {
			if earliest.IsZero() || rec.at.Before(earliest) {
				earliest = rec.at
			}
		}
	}
	if total == 0 {
		return fmt.Errorf("no measured requests to trace")
	}
	tr := span.New(span.Config{Capacity: 6*total + 16})
	for si, r := range results {
		if len(r.records) == 0 {
			continue
		}
		lane := tr.Lane(fmt.Sprintf("session-%03d", si)).ID()
		for _, rec := range r.records {
			start := int64(rec.at.Sub(earliest))
			e2e := int64(rec.e2eMs * 1e6)
			at := start
			var child int64
			emit := func(name string, durUs int64) {
				d := durUs * 1e3
				if d < 0 {
					d = 0
				}
				tr.Record(span.Span{
					Name: name, Parent: "request", Req: rec.id, Lane: lane,
					Start: at, Dur: d, Ep: -1, Step: -1,
				})
				at += d
				child += d
			}
			emit("queue", rec.queueUs)
			emit("batch_seal", rec.sealUs)
			emit("replica_infer", rec.inferUs)
			emit("reply", rec.replyUs)
			// The remainder the server never saw: network + serialization +
			// client overhead. Clamped so the identity holds even under
			// pathological clock skew.
			emit("network", max(e2e-child, 0)/1e3)
			tr.Record(span.Span{
				Name: "request", Parent: "", Req: rec.id, Lane: lane,
				Start: start, Dur: child, Child: child, Ep: -1, Step: -1,
			})
		}
	}
	return obs.WriteFileAtomic(path, tr.WriteChrome)
}

// pct is the exact (nearest-rank, linear-interpolated) percentile of a
// sorted sample, in the sample's units.
func pct(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
