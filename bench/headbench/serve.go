package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"head/internal/experiments"
	"head/internal/head"
	"head/internal/nn"
	"head/internal/obs"
	"head/internal/obs/span"
	"head/internal/parallel"
	"head/internal/predict"
	"head/internal/rl"
	"head/internal/serve"
	"head/internal/world"
)

// weightSeed seeds every model the benchmark builds. Serving, evaluation
// and training cost depend on the model shapes, not on trained values, and
// a policy that is the same for every --seed keeps evaluation episode
// lengths comparable across seeds.
const weightSeed = 7

// Random-stream tags: each input family derives its own stream from the
// run seed.
const (
	streamChains int64 = iota + 1
	streamFleet
	streamReplay
	streamDataset
	streamModel
	streamTrain
)

// drainInFlight is how many requests the drain keeps in flight: eight
// full batches, a backlog that keeps the single replica busy without
// holding the whole fleet's decoded requests in memory.
const drainInFlight = 64

// minOffered is the offered-load ratio below which a serve run warns that
// the generator fell behind its schedule. Single late sends do not count:
// on one core a request due while a batch is being decided is sent when
// the core frees up, and its latency still counts from the due time.
const minOffered = 0.99

// newModels builds the Record-shape LST-GAT predictor and BP-DQN agent from
// the fixed weight seed.
func newModels(s experiments.Scale) (*predict.LSTGAT, *rl.PDQN) {
	aMax := s.EnvConfig().Traffic.World.AMax
	p := predict.NewLSTGAT(s.PredictorConfig(), rand.New(rand.NewSource(weightSeed)))
	a := rl.NewBPDQN(s.RLConfig(), rl.DefaultStateSpec(), aMax, s.RLHidden, rand.New(rand.NewSource(weightSeed+1)))
	return p, a
}

// cloneAgent copies a trained agent into a private instance (layers cache
// forward state, so instances are never shared between goroutines).
func cloneAgent(s experiments.Scale, agent *rl.PDQN) *rl.PDQN {
	a := rl.NewBPDQN(s.RLConfig(), rl.DefaultStateSpec(), s.EnvConfig().Traffic.World.AMax, s.RLHidden, rand.New(rand.NewSource(0)))
	nn.CopyParams(a, agent)
	return a
}

// newReplica builds one serving replica over private copies of the models.
func newReplica(s experiments.Scale, predictor *predict.LSTGAT, agent *rl.PDQN) *serve.Replica {
	return serve.NewReplica(serve.ConfigFor(s.EnvConfig()), predictor.Clone(), cloneAgent(s, agent))
}

// captureChain rolls an environment with a coasting AV and returns n
// consecutive servable snapshots, each one simulator step after the
// previous, so a delta session can walk the chain with newest-frame deltas.
// An episode end restarts the chain.
func captureChain(cfg head.EnvConfig, rng *rand.Rand, n int) []serve.Observation {
	env := head.NewEnv(cfg, nil, rng)
	env.Reset()
	coast := world.Maneuver{B: world.LaneKeep}
	z := cfg.Sensor.Z
	var chain []serve.Observation
	for len(chain) < n {
		if env.Done() {
			env.Reset()
			chain = chain[:0]
		}
		o := serve.Snapshot(env.SensorHistory())
		switch {
		case o.Validate(z) != nil:
			chain = chain[:0]
		case len(chain) > 0 && serve.HashFrames(chain[len(chain)-1].Frames[1:]) != serve.HashFrames(o.Frames[:z-1]):
			chain = append(chain[:0], o)
		default:
			chain = append(chain, o)
		}
		env.StepManeuver(coast)
	}
	return chain
}

// vehicle is one simulated client: it walks its chain from a seeded
// offset under its own session, sending one request per period at a
// seeded random point within the period, then drainPer requests back to
// back.
type vehicle struct {
	session       string
	chain, offset int
	// due holds the send times of the scheduled requests, as offsets from
	// the start of the run: the warm-up and nominal phases.
	due []time.Duration
	// total counts the scheduled and the drain requests.
	total int
	// bodies are the pre-encoded delta-wire requests, one per sequence
	// number (nil on the JSON wire, whose bodies are per snapshot).
	bodies [][]byte
}

type serveInputs struct {
	delta     bool
	s         experiments.Scale
	sz        *sizes
	predictor *predict.LSTGAT
	agent     *rl.PDQN
	chains    [][]serve.Observation
	refs      [][]serve.Decision
	json      [][][]byte // JSON request bodies per chain position
	vehicles  []vehicle
}

// prepareServe captures the snapshot chains, computes one B=1 reference
// decision per snapshot, lays out the fleet schedule and pre-encodes every
// request body.
func prepareServe(seed int64, seconds time.Duration, sz *sizes, delta bool) (instance, error) {
	in := &serveInputs{delta: delta, s: experiments.Record(), sz: sz}
	cfg := in.s.EnvConfig()
	in.predictor, in.agent = newModels(in.s)

	in.chains = make([][]serve.Observation, sz.chains)
	for c := range in.chains {
		in.chains[c] = captureChain(cfg, parallel.Rand(parallel.Seed(seed, streamChains), int64(c)), sz.chainLen)
	}
	if err := in.reference(); err != nil {
		return nil, err
	}

	fleet := parallel.Rand(seed, streamFleet)
	horizon := sz.warmup + seconds
	in.vehicles = make([]vehicle, sz.vehicles)
	for i := range in.vehicles {
		v := &in.vehicles[i]
		v.session = fmt.Sprintf("hb-%04d", i)
		v.chain = i % sz.chains
		v.offset = fleet.Intn(sz.chainLen)
		// A fresh point within every period, so the fleet's arrivals
		// approximate a Poisson stream rather than repeat one seed-specific
		// burst pattern every period.
		for start := time.Duration(0); start < horizon; start += sz.period {
			if at := start + time.Duration(fleet.Int63n(int64(sz.period))); at < horizon {
				v.due = append(v.due, at)
			}
		}
		v.total = len(v.due) + sz.drainPer
	}

	if !delta {
		in.json = make([][][]byte, len(in.chains))
		for c, chain := range in.chains {
			in.json[c] = make([][]byte, len(chain))
			for p := range chain {
				b, err := json.Marshal(serve.Observation{Frames: chain[p].Frames})
				if err != nil {
					return nil, err
				}
				in.json[c][p] = b
			}
		}
		return in, nil
	}
	z := cfg.Sensor.Z
	for i := range in.vehicles {
		v := &in.vehicles[i]
		chain := in.chains[v.chain]
		v.bodies = make([][]byte, v.total)
		for k := range v.bodies {
			pos := (v.offset + k) % len(chain)
			if k == 0 || pos == 0 {
				// A session's first request, and every wrap back to the chain
				// head, registers a full snapshot.
				v.bodies[k] = serve.AppendFull(nil, []byte(v.session), chain[pos].Frames)
				continue
			}
			base := serve.HashFrames(chain[pos-1].Frames)
			v.bodies[k] = serve.AppendDelta(nil, []byte(v.session), base, chain[pos].Frames[z-1:])
		}
	}
	return in, nil
}

// reference computes every snapshot's decision at B=1, the bit-exact
// answer every served decision must match.
func (in *serveInputs) reference() error {
	r := newReplica(in.s, in.predictor, in.agent)
	in.refs = make([][]serve.Decision, len(in.chains))
	for c, chain := range in.chains {
		in.refs[c] = make([]serve.Decision, len(chain))
		for p := range chain {
			if err := r.DecideBatch([]*serve.Observation{&chain[p]}, in.refs[c][p:p+1]); err != nil {
				return err
			}
		}
	}
	return nil
}

// server is the decision service wired the way cmd/headserve wires it by
// default: micro-batch 8, 2 ms max wait, one replica, request telemetry
// with a span tracer, the SLO engine and tail exemplars, and a 4096-session
// delta cache.
type server struct {
	mux     http.Handler
	batcher *serve.Batcher
	tracer  *span.Tracer
}

func (in *serveInputs) newServer(tr *span.Tracer) *server {
	reg := obs.NewRegistry()
	b := serve.NewBatcher(serve.BatcherConfig{
		MaxBatch: 8, MaxWait: 2 * time.Millisecond, Replicas: 1, Metrics: reg,
	}, func() serve.Decider { return newReplica(in.s, in.predictor, in.agent) })
	if tr == nil {
		tr = span.New(span.Config{})
	}
	slo := obs.NewSLO(obs.SLOConfig{Window: time.Minute, P50TargetMs: 10, P99TargetMs: 50, ErrorBudget: 0.01})
	slo.Bind(reg, "slo")
	tel := serve.NewTelemetry(serve.TelemetryConfig{
		Tracer: tr, Sample: 1, SLO: slo, Exemplars: serve.NewExemplarRing(8, time.Minute, nil),
	})
	sessions := serve.NewSessionCache(serve.DefaultSessionCap)
	return &server{
		mux:     serve.NewMux(b, in.s.EnvConfig().Sensor.Z, "f64", sessions, reg, tel),
		batcher: b,
		tracer:  tr,
	}
}

// request is one client request as the client saw it.
type request struct {
	id              string
	due, sent, done time.Time
	status          int
	resync          bool
	bytes           int
	resp            serve.DecideResponse
}

// genStats accounts an open-loop generator: each request's latency counts
// from when it was due, so a stall also charges the requests it delayed,
// and its lateness is how long after that it was actually sent.
type genStats struct {
	latMs, lateMs                          []float64
	firstDue, lastDue, firstSent, lastSent time.Time
}

func (g *genStats) observe(due, sent, done time.Time) {
	g.latMs = append(g.latMs, ms(done.Sub(due)))
	g.lateMs = append(g.lateMs, ms(sent.Sub(due)))
	if len(g.latMs) == 1 {
		g.firstDue, g.lastDue, g.firstSent, g.lastSent = due, due, sent, sent
		return
	}
	g.firstDue, g.lastDue = minTime(g.firstDue, due), maxTime(g.lastDue, due)
	g.firstSent, g.lastSent = minTime(g.firstSent, sent), maxTime(g.lastSent, sent)
}

// offered is the achieved send rate over the scheduled one. Late sends
// that catch up leave it at 1; below 1 the generator fell behind its
// schedule and offered less load than intended.
func (g *genStats) offered() float64 {
	return g.lastDue.Sub(g.firstDue).Seconds() / g.lastSent.Sub(g.firstSent).Seconds()
}

func minTime(a, b time.Time) time.Time {
	if b.Before(a) {
		return b
	}
	return a
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// measure runs the fleet against a fresh server: warm-up and nominal
// phases open-loop at the scheduled rate, then the drain, in which every
// vehicle sends its next drainPer requests back to back.
func (in *serveInputs) measure(seconds time.Duration, tr *span.Tracer) (pass, error) {
	srv := in.newServer(tr)
	var clientLanes []int64
	if tr != nil {
		for i := 0; i < 8; i++ {
			clientLanes = append(clientLanes, tr.Lane(fmt.Sprintf("headbench-client-%d", i)).ID())
		}
	}
	reqs := make([][]request, len(in.vehicles))
	lane := func(i int) int64 {
		if tr == nil {
			return 0
		}
		return clientLanes[i%len(clientLanes)]
	}
	var nominal sync.WaitGroup
	t0 := time.Now().Add(20 * time.Millisecond)
	for i := range in.vehicles {
		v := &in.vehicles[i]
		reqs[i] = make([]request, v.total)
		nominal.Add(1)
		go func(i int) {
			defer nominal.Done()
			for k, at := range v.due {
				due := t0.Add(at)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				reqs[i][k] = in.send(srv, v, k, due, lane(i))
			}
		}(i)
	}
	nominal.Wait()

	// The drain: drainInFlight clients, each walking its share of the
	// vehicles in turn, so every vehicle's requests stay in order.
	drainStart := time.Now()
	var drain sync.WaitGroup
	for w := 0; w < min(drainInFlight, len(in.vehicles)); w++ {
		drain.Add(1)
		go func(w int) {
			defer drain.Done()
			for i := w; i < len(in.vehicles); i += drainInFlight {
				v := &in.vehicles[i]
				for k := len(v.due); k < v.total; k++ {
					reqs[i][k] = in.send(srv, v, k, time.Now(), lane(i))
				}
			}
		}(w)
	}
	drain.Wait()
	srv.batcher.Close()
	return in.account(reqs, t0.Add(in.sz.warmup), drainStart, tr)
}

// send issues request k of vehicle v (resending a full snapshot once if a
// delta is refused with 409) and times it from due.
func (in *serveInputs) send(srv *server, v *vehicle, k int, due time.Time, lane int64) request {
	pos := (v.offset + k) % len(in.chains[v.chain])
	r := request{id: fmt.Sprintf("%s-%05d", v.session, k), due: due}
	var body []byte
	if in.delta {
		body = v.bodies[k]
	} else {
		body = in.json[v.chain][pos]
	}
	r.sent = time.Now()
	r.status = in.post(srv, body, &r, lane)
	r.bytes = len(body)
	if in.delta && r.status == http.StatusConflict {
		full := serve.AppendFull(nil, []byte(v.session), in.chains[v.chain][pos].Frames)
		r.resync = true
		r.bytes += len(full)
		r.status = in.post(srv, full, &r, lane)
	}
	r.done = time.Now()
	return r
}

// post calls the HTTP handler in-process and parses a 200 reply into r.
func (in *serveInputs) post(srv *server, body []byte, r *request, lane int64) int {
	req, err := http.NewRequest(http.MethodPost, "http://headbench/v1/decide", bytes.NewReader(body))
	if err != nil {
		return 0
	}
	req.Header.Set(serve.RequestIDHeader, r.id)
	if in.delta {
		req.Header.Set("Content-Type", serve.WireContentType)
		req.Header.Set("Accept", serve.WireContentType)
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	start := time.Now()
	srv.mux.ServeHTTP(rec, req)
	if lane != 0 {
		srv.tracer.Record(span.Span{
			Name: "serve_http", Lane: lane, Start: srv.tracer.Since(start),
			Dur: int64(time.Since(start)), Ep: -1, Step: -1,
		})
	}
	if rec.Code != http.StatusOK {
		return rec.Code
	}
	if in.delta {
		err = serve.DecodeResponse(rec.Body.Bytes(), &r.resp)
	} else {
		err = json.Unmarshal(rec.Body.Bytes(), &r.resp)
	}
	if err != nil {
		return 0
	}
	return http.StatusOK
}

// account checks every served decision against its reference and reduces
// the requests to the pass's metrics; tr is the traced pass's tracer (nil
// untraced).
func (in *serveInputs) account(reqs [][]request, nominalStart, drainStart time.Time, tr *span.Tracer) (pass, error) {
	var p pass
	var gen genStats
	var queue, seal, infer, overhead, size []float64
	var batchNominal, batchDrain []float64
	var resyncs, deltas int64
	var lastDone time.Time
	nominal := map[string]bool{}
	d := newDigest()
	for i, rs := range reqs {
		v := &in.vehicles[i]
		for k, r := range rs {
			p.attempted++
			d.ints(int64(i), int64(k), int64(r.status))
			if in.delta && !r.resync && k > 0 && (v.offset+k)%len(in.chains[v.chain]) != 0 {
				deltas++
			}
			if r.resync {
				resyncs++
			}
			if r.status != http.StatusOK {
				p.failed++
				continue
			}
			ref := in.refs[v.chain][(v.offset+k)%len(in.chains[v.chain])]
			if !sameDecision(r.resp.Decision, ref) {
				return p, fmt.Errorf("request %s: served decision differs from its B=1 reference", r.id)
			}
			d.ints(int64(r.resp.Behavior))
			d.floats(r.resp.Accel)
			d.floats(r.resp.Params...)
			if k >= len(v.due) {
				batchDrain = append(batchDrain, float64(r.resp.BatchSize))
				if r.done.After(lastDone) {
					lastDone = r.done
				}
				continue
			}
			if r.due.Before(nominalStart) {
				continue
			}
			nominal[r.id] = true
			gen.observe(r.due, r.sent, r.done)
			e := r.resp
			queue = append(queue, float64(e.QueueMicros))
			seal = append(seal, float64(e.SealMicros))
			infer = append(infer, float64(e.InferMicros))
			envelope := float64(e.QueueMicros + e.SealMicros + e.InferMicros + e.ReplyMicros)
			overhead = append(overhead, us(r.done.Sub(r.sent))-envelope)
			size = append(size, float64(r.bytes))
			batchNominal = append(batchNominal, float64(e.BatchSize))
		}
	}
	if len(gen.latMs) == 0 || len(batchDrain) == 0 {
		return p, fmt.Errorf("no successful nominal or drain request (%d of %d failed)", p.failed, p.attempted)
	}
	p.ops = gen.latMs
	p.work = p.attempted
	p.opsPerJob = p.attempted
	p.throughput = float64(len(batchDrain)) / lastDone.Sub(drainStart).Seconds()
	p.digest = d.sum()
	late := sortedCopy(gen.lateMs)
	if o := gen.offered(); o < minOffered {
		p.notes = append(p.notes, fmt.Sprintf("generator offered %.1f%% of the scheduled load", 100*o))
	}
	resyncRatio := 0.0
	if deltas > 0 {
		resyncRatio = float64(resyncs) / float64(deltas)
	}
	sq, ss, si, so, sb := sortedCopy(queue), sortedCopy(seal), sortedCopy(infer), sortedCopy(overhead), sortedCopy(size)
	p.extra = []metric{
		{"serve.requests", float64(p.attempted), "count"},
		{"serve.queue_us.p50", percentile(sq, 50), "us"},
		{"serve.queue_us.p99", percentile(sq, 99), "us"},
		{"serve.seal_us.p99", percentile(ss, 99), "us"},
		{"serve.infer_us.p50", percentile(si, 50), "us"},
		{"serve.batch_size.nominal", mean(batchNominal), "count"},
		{"serve.batch_size.capacity", mean(batchDrain), "count"},
		{"serve.overhead_us.p50", percentile(so, 50), "us"},
		{"serve.resync_ratio", resyncRatio, "ratio"},
		{"serve.req_bytes.p50", percentile(sb, 50), "bytes"},
		{"gen.late_ms.p99", percentile(late, 99), "ms"},
		{"gen.late_ms.max", late[len(late)-1], "ms"},
		{"gen.offered_ratio", gen.offered(), "ratio"},
	}
	if tr != nil {
		p.unattributedPct, p.extra = requestSpans(tr, nominal, p.extra)
	}
	return p, nil
}

// requestSpans reduces the server's request span trees of the nominal
// requests to per-phase p50/p99 and the share of request time no phase
// covers.
func requestSpans(tr *span.Tracer, nominal map[string]bool, out []metric) (float64, []metric) {
	spans, _ := tr.Snapshot()
	phases := map[string][]float64{}
	var total, self float64
	for _, s := range spans {
		if !nominal[s.Req] {
			continue
		}
		switch {
		case s.Name == "request":
			total += float64(s.Dur)
			self += float64(s.Dur - s.Child)
		case s.Parent == "request":
			phases[s.Name] = append(phases[s.Name], us(time.Duration(s.Dur)))
		}
	}
	for _, name := range []string{"decode", "queue", "batch_seal", "replica_infer", "reply", "encode"} {
		ds := sortedCopy(phases[name])
		out = append(out,
			metric{"serve.span." + name + "_us.p50", percentile(ds, 50), "us"},
			metric{"serve.span." + name + "_us.p99", percentile(ds, 99), "us"})
	}
	return 100 * self / total, out
}

func sameDecision(a, b serve.Decision) bool {
	if a.Behavior != b.Behavior || math.Float64bits(a.Accel) != math.Float64bits(b.Accel) || len(a.Params) != len(b.Params) {
		return false
	}
	for i := range a.Params {
		if math.Float64bits(a.Params[i]) != math.Float64bits(b.Params[i]) {
			return false
		}
	}
	return true
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
