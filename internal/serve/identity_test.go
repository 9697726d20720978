package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"head/internal/head"
	"head/internal/obs"
	"head/internal/obs/quality"
	"head/internal/obs/span"
	"head/internal/predict"
	"head/internal/rl"
)

func tinyEnvConfig() head.EnvConfig {
	cfg := head.DefaultEnvConfig()
	cfg.Traffic.World.RoadLength = 400
	cfg.Traffic.Density = 100
	cfg.MaxSteps = 40
	return cfg
}

func tinyServePredictor() *predict.LSTGAT {
	cfg := predict.DefaultLSTGATConfig()
	cfg.AttnDim, cfg.GATOut, cfg.HiddenDim = 8, 6, 8
	return predict.NewLSTGAT(cfg, rand.New(rand.NewSource(3)))
}

// tinyServeAgent builds a BP-DQN from a fixed seed; two calls with the same
// env geometry produce bit-identical weights, which is how the serial env
// and the serving replica share "trained" parameters in these tests.
func tinyServeAgent(env *head.Env) rl.BatchAgent {
	return rl.NewBPDQN(rl.DefaultPDQNConfig(), env.Spec(), env.AMax(), 8, rand.New(rand.NewSource(9)))
}

// TestServedDecisionBitIdentity is the service's determinism contract:
// snapshot the env's sensor history, push it through the JSON wire form,
// decide via a Replica (inside a mixed batch, at different row positions),
// and require the served maneuver, parameter vector, and attention rows to
// equal the serial head.Env decision bit for bit.
func TestServedDecisionBitIdentity(t *testing.T) {
	cfg := tinyEnvConfig()
	base := tinyServePredictor()

	envPred := base.Clone()
	env := head.NewEnv(cfg, envPred, rand.New(rand.NewSource(21)))
	ctrl := &head.AgentController{ControllerName: "HEAD", Agent: tinyServeAgent(env)}
	replica := NewReplica(ConfigFor(cfg), base.Clone(), tinyServeAgent(env))

	env.Reset()
	checked := 0
	for !env.Done() && env.Steps() < 30 {
		m := ctrl.Decide(env)
		var serialAttn [][]float64
		for _, row := range envPred.LastAttention() {
			serialAttn = append(serialAttn, append([]float64(nil), row...))
		}

		// Wire round trip: exactly what an HTTP client would send.
		data, err := json.Marshal(Snapshot(env.SensorHistory()))
		if err != nil {
			t.Fatal(err)
		}
		var o Observation
		if err := json.Unmarshal(data, &o); err != nil {
			t.Fatal(err)
		}
		o.ReturnAttention = true

		if o.Validate(cfg.Sensor.Z) == nil {
			// A perturbed neighbor in the middle row proves per-row
			// independence: foreign batch mates must not leak into rows
			// 0 and 2.
			perturbed := o
			perturbed.Frames = append([]Frame(nil), o.Frames...)
			perturbed.Frames[0].AV.V += 0.5
			out := make([]Decision, 3)
			if err := replica.DecideBatch([]*Observation{&o, &perturbed, &o}, out); err != nil {
				t.Fatalf("step %d: DecideBatch: %v", env.Steps(), err)
			}
			for _, idx := range []int{0, 2} {
				d := out[idx]
				if d.Behavior != int(m.B) || math.Float64bits(d.Accel) != math.Float64bits(m.A) {
					t.Fatalf("step %d row %d: served (%d, %x) != serial (%d, %x)",
						env.Steps(), idx, d.Behavior, math.Float64bits(d.Accel),
						int(m.B), math.Float64bits(m.A))
				}
				if len(d.Params) != len(serialAttn) && len(d.Params) == 0 {
					t.Fatalf("step %d row %d: empty parameter vector", env.Steps(), idx)
				}
				if len(d.Attention) != len(serialAttn) {
					t.Fatalf("step %d row %d: %d attention rows, serial has %d",
						env.Steps(), idx, len(d.Attention), len(serialAttn))
				}
				for r := range serialAttn {
					if len(d.Attention[r]) != len(serialAttn[r]) {
						t.Fatalf("step %d row %d: attention row %d width %d != %d",
							env.Steps(), idx, r, len(d.Attention[r]), len(serialAttn[r]))
					}
					for c := range serialAttn[r] {
						if math.Float64bits(d.Attention[r][c]) != math.Float64bits(serialAttn[r][c]) {
							t.Fatalf("step %d row %d: attention[%d][%d] served %x != serial %x",
								env.Steps(), idx, r, c,
								math.Float64bits(d.Attention[r][c]), math.Float64bits(serialAttn[r][c]))
						}
					}
				}
			}
			checked++
		}
		env.StepManeuver(m)
	}
	if checked == 0 {
		t.Fatal("no servable steps: the sensor history never filled to Z frames")
	}
	t.Logf("verified %d served decisions bit-identical to serial", checked)
}

// TestBatcherServesIdentical runs the full service path — concurrent
// Submits through a Batcher over real Replicas — and requires every copy of
// the same observation to come back with the serial env's exact decision,
// regardless of which replica or batch slot served it.
func TestBatcherServesIdentical(t *testing.T) {
	cfg := tinyEnvConfig()
	base := tinyServePredictor()

	envPred := base.Clone()
	env := head.NewEnv(cfg, envPred, rand.New(rand.NewSource(33)))
	ctrl := &head.AgentController{ControllerName: "HEAD", Agent: tinyServeAgent(env)}
	rcfg := ConfigFor(cfg)

	// Roll until the sensor history is servable.
	env.Reset()
	for !env.Done() {
		o := Snapshot(env.SensorHistory())
		if o.Validate(cfg.Sensor.Z) == nil {
			break
		}
		env.StepManeuver(ctrl.Decide(env))
	}
	if env.Done() {
		t.Fatal("episode ended before the sensor history filled")
	}
	want := ctrl.Decide(env)
	snap := Snapshot(env.SensorHistory())

	// Both replicas hold their first batch until every request is queued,
	// so the rest pile up and ride shared batches.
	const n = 12
	g := newGate(n)
	b := NewBatcher(BatcherConfig{MaxBatch: 4, Replicas: 2},
		func() Decider { return gatedDecider{NewReplica(rcfg, base.Clone(), tinyServeAgent(env)), g} })
	defer b.Close()
	defer g.open()

	var shared atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := snap // value copy; frames slice is shared read-only
			res, err := b.Submit(context.Background(), &o)
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			if res.BatchSize > 1 {
				shared.Store(true)
			}
			d := res.Decision
			if d.Behavior != int(want.B) || math.Float64bits(d.Accel) != math.Float64bits(want.A) {
				t.Errorf("served (%d, %x) != serial (%d, %x) at batch size %d",
					d.Behavior, math.Float64bits(d.Accel),
					int(want.B), math.Float64bits(want.A), res.BatchSize)
			}
		}()
	}
	held := waitEntered(t, g.entered) + waitEntered(t, g.entered)
	waitQueued(t, b, n-held)
	g.open()
	wg.Wait()
	if !shared.Load() {
		t.Error("every request rode a batch of one; the batched path went untested")
	}
}

// TestServedDecisionBitIdentityTelemetry extends the determinism contract
// across the telemetry layer: the same observation served over HTTP with
// telemetry off, fully on, and sampled must produce byte-identical
// decisions. Request tracing, SLO evaluation, and tail capture are
// strictly out of band — any divergence here is telemetry leaking into
// the decision path.
func TestServedDecisionBitIdentityTelemetry(t *testing.T) {
	cfg := tinyEnvConfig()
	base := tinyServePredictor()
	env := head.NewEnv(cfg, base.Clone(), rand.New(rand.NewSource(21)))
	ctrl := &head.AgentController{ControllerName: "HEAD", Agent: tinyServeAgent(env)}
	rcfg := ConfigFor(cfg)

	env.Reset()
	for !env.Done() {
		o := Snapshot(env.SensorHistory())
		if o.Validate(cfg.Sensor.Z) == nil {
			break
		}
		env.StepManeuver(ctrl.Decide(env))
	}
	if env.Done() {
		t.Fatal("episode ended before the sensor history filled")
	}
	body, err := json.Marshal(Snapshot(env.SensorHistory()))
	if err != nil {
		t.Fatal(err)
	}

	modes := []struct {
		name string
		tel  func() *Telemetry
	}{
		{"off", func() *Telemetry { return nil }},
		{"on", func() *Telemetry {
			return NewTelemetry(TelemetryConfig{
				Tracer:    span.New(span.Config{}),
				SLO:       obs.NewSLO(obs.SLOConfig{}),
				Exemplars: NewExemplarRing(4, time.Minute, nil),
			})
		}},
		{"sampled", func() *Telemetry {
			return NewTelemetry(TelemetryConfig{
				Tracer: span.New(span.Config{}),
				Sample: 0.5,
				SLO:    obs.NewSLO(obs.SLOConfig{}),
			})
		}},
		{"quality", func() *Telemetry {
			// Drift monitoring on: every served decision feeds the monitor,
			// which must not leak back into the decision path.
			rec := quality.NewRecorder("")
			for i := 0; i < 200; i++ {
				rec.Observe(quality.Sample{
					Behavior: i % 3, Accel: float64(i%5) - 2, Speed: 15, Neighbors: 3,
					TTC: 4, TTCValid: true, AttnEntropy: 1, AttnValid: true,
				})
			}
			mon := quality.NewMonitor(rec.Baseline(quality.Baseline{Tool: "test"}), quality.MonitorConfig{})
			return NewTelemetry(TelemetryConfig{
				SLO:     obs.NewSLO(obs.SLOConfig{}),
				Quality: &QualityFeed{Monitor: mon, VehicleLen: cfg.Traffic.World.VehicleLen},
			})
		}},
	}
	var bodies [][]byte
	for _, mode := range modes {
		b := NewBatcher(BatcherConfig{MaxBatch: 2},
			func() Decider { return NewReplica(rcfg, base.Clone(), tinyServeAgent(env)) })
		srv := httptest.NewServer(NewMux(b, cfg.Sensor.Z, "f64", NewSessionCache(0), nil, mode.tel()))
		// Several requests per mode so the sampled mode exercises both the
		// traced and untraced branches.
		var first []byte
		for i := 0; i < 4; i++ {
			resp, err := http.Post(srv.URL+"/v1/decide?attention=1", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var dr DecideResponse
			if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("mode %s request %d: status %d", mode.name, i, resp.StatusCode)
			}
			// Compare the decision payload alone: request ids and latency
			// attribution legitimately differ between requests.
			dec, err := json.Marshal(dr.Decision)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = dec
			} else if !bytes.Equal(first, dec) {
				t.Errorf("mode %s: request %d decision diverged:\n%s\nvs\n%s", mode.name, i, first, dec)
			}
		}
		bodies = append(bodies, first)
		srv.Close()
		b.Close()
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Errorf("telemetry mode %q changed the served decision:\n%s\nvs\n%s",
				modes[i].name, bodies[0], bodies[i])
		}
	}
}

// TestSnapshotStableBytes: the wire form of the same history serializes to
// identical bytes across calls (observation maps iterate randomly; Snapshot
// must sort that away).
func TestSnapshotStableBytes(t *testing.T) {
	cfg := tinyEnvConfig()
	env := head.NewEnv(cfg, tinyServePredictor(), rand.New(rand.NewSource(5)))
	ctrl := &head.AgentController{ControllerName: "HEAD", Agent: tinyServeAgent(env)}
	env.Reset()
	for i := 0; i < cfg.Sensor.Z+2 && !env.Done(); i++ {
		env.StepManeuver(ctrl.Decide(env))
	}
	first, err := json.Marshal(Snapshot(env.SensorHistory()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		again, err := json.Marshal(Snapshot(env.SensorHistory()))
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(first) {
			t.Fatalf("snapshot bytes unstable:\n%s\nvs\n%s", first, again)
		}
	}
}

// TestServedDecisionBitIdentityWire extends the determinism contract
// across wire forms: the same env trajectory served over HTTP as JSON,
// binary full snapshots, and session-affine deltas must return
// byte-identical decisions at every step. The delta client behaves like a
// real one — full snapshot first, newest-frame deltas after, transparent
// full resend on 409.
func TestServedDecisionBitIdentityWire(t *testing.T) {
	cfg := tinyEnvConfig()
	base := tinyServePredictor()
	env := head.NewEnv(cfg, base.Clone(), rand.New(rand.NewSource(21)))
	ctrl := &head.AgentController{ControllerName: "HEAD", Agent: tinyServeAgent(env)}
	rcfg := ConfigFor(cfg)

	b := NewBatcher(BatcherConfig{MaxBatch: 4},
		func() Decider { return NewReplica(rcfg, base.Clone(), tinyServeAgent(env)) })
	defer b.Close()
	srv := httptest.NewServer(NewMux(b, cfg.Sensor.Z, "f64", NewSessionCache(0), nil, nil))
	defer srv.Close()

	decide := func(contentType string, body []byte, acceptWire bool) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest("POST", srv.URL+"/v1/decide?attention=1", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		if acceptWire {
			req.Header.Set("Accept", WireContentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	// The delta client's view of its session base.
	var prev []Frame
	session := []byte("identity-delta")
	deltaDecide := func(frames []Frame) Decision {
		t.Helper()
		if prev != nil {
			enc := AppendDelta(nil, session, HashFrames(prev), frames[len(frames)-1:])
			resp, out := decide(WireContentType, enc, true)
			if resp.StatusCode == http.StatusOK {
				prev = frames
				var dr DecideResponse
				if err := DecodeResponse(out, &dr); err != nil {
					t.Fatalf("delta response: %v", err)
				}
				return dr.Decision
			}
			if resp.StatusCode != http.StatusConflict {
				t.Fatalf("delta: status %d, body %s", resp.StatusCode, out)
			}
		}
		resp, out := decide(WireContentType, AppendFull(nil, session, frames), true)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("full resend: status %d, body %s", resp.StatusCode, out)
		}
		prev = frames
		var dr DecideResponse
		if err := DecodeResponse(out, &dr); err != nil {
			t.Fatalf("full response: %v", err)
		}
		return dr.Decision
	}

	env.Reset()
	checked, resyncs := 0, 0
	for !env.Done() && env.Steps() < 30 {
		m := ctrl.Decide(env)
		snap := Snapshot(env.SensorHistory())
		if snap.Validate(cfg.Sensor.Z) == nil {
			jsonBody, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			resp, out := decide("application/json", jsonBody, false)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("json: status %d, body %s", resp.StatusCode, out)
			}
			var jdr DecideResponse
			if err := json.Unmarshal(out, &jdr); err != nil {
				t.Fatal(err)
			}

			resp, out = decide(WireContentType, AppendFull(nil, nil, snap.Frames), false)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("binary: status %d, body %s", resp.StatusCode, out)
			}
			var bdr DecideResponse
			if err := json.Unmarshal(out, &bdr); err != nil {
				t.Fatal(err)
			}

			hadBase := prev != nil
			ddec := deltaDecide(snap.Frames)
			if hadBase && prev != nil {
				checked++
			}

			jb, _ := json.Marshal(jdr.Decision)
			bb, _ := json.Marshal(bdr.Decision)
			db, _ := json.Marshal(ddec)
			if !bytes.Equal(jb, bb) || !bytes.Equal(jb, db) {
				t.Fatalf("step %d: decisions diverge across wire forms:\njson   %s\nbinary %s\ndelta  %s",
					env.Steps(), jb, bb, db)
			}
			if jdr.Behavior != int(m.B) || math.Float64bits(jdr.Accel) != math.Float64bits(m.A) {
				t.Fatalf("step %d: served (%d, %x) != serial (%d, %x)", env.Steps(),
					jdr.Behavior, math.Float64bits(jdr.Accel), int(m.B), math.Float64bits(m.A))
			}
		}
		env.StepManeuver(m)
	}
	if checked == 0 {
		t.Fatal("no delta-served steps: the history never advanced a session")
	}
	t.Logf("verified %d steps bit-identical across json/binary/delta (%d resyncs)", checked, resyncs)
}
