package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"head/internal/experiments"
	"head/internal/head"
	"head/internal/ngsim"
	"head/internal/parallel"
	"head/internal/phantom"
	"head/internal/predict"
	"head/internal/rl"
	"head/internal/sensor"
	"head/internal/serve"
	"head/internal/traffic"
	"head/internal/world"
)

// layerCall is one public call the layer replay times.
type layerCall struct {
	// calls is how many inputs one sweep covers, sweeps how many timed
	// sweeps run.
	calls, sweeps int
	// before, when set, runs untimed ahead of every sweep.
	before func()
	fn     func(i int)
	per    []float64 // time per call of each timed sweep, ns
	median time.Duration
}

func (c *layerCall) sweep(timed bool) {
	if c.before != nil {
		c.before()
	}
	t0 := time.Now()
	for i := 0; i < c.calls; i++ {
		c.fn(i)
	}
	if timed {
		c.per = append(c.per, float64(time.Since(t0))/float64(c.calls))
	}
}

// timeCalls runs one untimed sweep of every call, then the timed sweeps
// round-robin across calls, so a slow spell of a shared machine falls on
// every layer alike, and sets each call's median time per call.
func timeCalls(calls []*layerCall) {
	rounds := 0
	for _, c := range calls {
		c.sweep(false)
		rounds = max(rounds, c.sweeps)
	}
	for r := 0; r < rounds; r++ {
		for _, c := range calls {
			if r < c.sweeps {
				c.sweep(true)
			}
		}
	}
	for _, c := range calls {
		c.median = time.Duration(median(c.per))
	}
}

// sensorFrames rebuilds the sensor frames a wire observation was taken
// from.
func sensorFrames(o serve.Observation) []sensor.Frame {
	out := make([]sensor.Frame, len(o.Frames))
	for i, f := range o.Frames {
		m := make(map[int]world.State, len(f.Vehicles))
		for _, v := range f.Vehicles {
			m[v.ID] = v.State
		}
		out[i] = sensor.Frame{AV: f.AV, Observed: m}
	}
	return out
}

// lstgatFlops counts the floating-point operations of one LST-GAT forward
// over g, computed from the configured shapes and g's neighborhoods: the
// GAT node transforms, attention scores and weighted aggregation, the LSTM
// gate pre-activations and the read-out, at two FLOPs per multiply-add.
// Nonlinearities and the softmax are not counted.
func lstgatFlops(cfg predict.LSTGATConfig, g *phantom.Graph) float64 {
	// The GAT input is the node features plus a slot-code column.
	in := float64(phantom.FeatureDim + 1)
	a, o, h := float64(cfg.AttnDim), float64(cfg.GATOut), float64(cfg.HiddenDim)
	targets := float64(len(g.Targets))
	f := 0.0
	for _, step := range g.Steps {
		f += 2 * float64(len(step)) * in * (a + o)
		for _, nbrs := range g.Neighbors {
			f += 2*a + float64(len(nbrs))*(2*a+2*o)
		}
		f += 2 * targets * (float64(phantom.FeatureDim) + o + h) * 4 * h
	}
	return f + 2*targets*h*predict.OutputDim
}

// replayLayers times every layer's public call on its own, over inputs
// captured from a seeded Record environment with the Record model shapes,
// and reports the median time per call.
func replayLayers(seed int64, sz *sizes) ([]metric, error) {
	s := experiments.Record()
	cfg := s.EnvConfig()
	z := cfg.Sensor.Z
	spec := rl.DefaultStateSpec()
	predictor, agent := newModels(s)
	rng := parallel.Rand(seed, streamReplay)
	chain := captureChain(cfg, rng, sz.replayInputs)
	n, b8 := len(chain), len(chain)/8
	if b8 == 0 {
		return nil, fmt.Errorf("layer replay needs at least 8 inputs, got %d", n)
	}

	// Inputs at every layer boundary, from the serial pipeline.
	obs := make([]*serve.Observation, n)
	frames := make([][]sensor.Frame, n)
	graphs := make([]*phantom.Graph, n)
	preds := make([]predict.Prediction, n)
	states := make([][]float64, n)
	acts := make([]rl.Action, n)
	decisions := make([]serve.Decision, n)
	builder := phantom.NewBuilder(serve.ConfigFor(cfg).Phantom)
	replica := newReplica(s, predictor, agent)
	for i := range chain {
		obs[i] = &chain[i]
		frames[i] = sensorFrames(chain[i])
		graphs[i] = builder.Build(frames[i])
		preds[i] = predictor.Predict(graphs[i])
		states[i] = head.AssembleState(spec, graphs[i], preds[i], graphs[i].AV, nil)
		a := agent.Act(states[i], false)
		a.Raw = append([]float64(nil), a.Raw...)
		acts[i] = a
		if err := replica.DecideBatch(obs[i:i+1], decisions[i:i+1]); err != nil {
			return nil, err
		}
	}
	jsonBodies := make([][]byte, n)
	responses := make([]serve.DecideResponse, n)
	deltas := make([][]byte, n)
	hashes := make([]uint64, n)
	session := []byte("hb-replay")
	for i := range chain {
		b, err := json.Marshal(serve.Observation{Frames: chain[i].Frames})
		if err != nil {
			return nil, err
		}
		jsonBodies[i] = b
		responses[i] = serve.DecideResponse{Decision: decisions[i], RequestID: fmt.Sprintf("hb-0000-%05d", i), BatchSize: 8}
		hashes[i] = serve.HashFrames(chain[i].Frames)
		if i > 0 {
			deltas[i] = serve.AppendDelta(nil, session, hashes[i-1], chain[i].Frames[z-1:])
		}
	}
	dcfg := ngsim.DefaultConfig()
	dcfg.Rollouts, dcfg.StepsPerRollout = 1, sz.datasetSteps
	ds, err := ngsim.Generate(dcfg, rng)
	if err != nil {
		return nil, err
	}
	batches := ds.Len() / s.PredBatch
	if batches == 0 {
		return nil, fmt.Errorf("layer replay dataset has %d samples, fewer than one batch", ds.Len())
	}
	trainer := predictor.Clone()
	learner := cloneAgent(s, agent)
	transition := func(i int) rl.Transition {
		i %= n - 1
		return rl.Transition{State: states[i], Action: acts[i], Reward: 0.1, Next: states[i+1]}
	}
	// Past the warm-up every Observe samples a minibatch and updates.
	for j := 0; j < s.RLConfig().Warmup+s.RLConfig().BatchSize; j++ {
		learner.Observe(transition(j))
	}
	coast := world.Maneuver{B: world.LaneKeep}
	sim, err := traffic.New(cfg.Traffic, rng)
	if err != nil {
		return nil, err
	}
	scenes := make([][]*traffic.Vehicle, n)
	avs := make([]world.State, n)
	for i := range scenes {
		for _, v := range sim.Vehicles {
			c := *v
			scenes[i] = append(scenes[i], &c)
		}
		avs[i] = sim.AV.State
		sim.Step(coast)
	}
	sens := sensor.New(cfg.Sensor, cfg.Traffic.World.LaneWidth)

	var failure error
	fail := func(err error) {
		if err != nil && failure == nil {
			failure = err
		}
	}
	var (
		buf     bytes.Buffer
		wire    []byte
		out     = make([]serve.Decision, 8)
		g       *phantom.Graph
		predOut = make([]predict.Prediction, 8)
		state   []float64
		actOut  = make([]rl.Action, 8)
		cache   = serve.NewSessionCache(0)
		stepSim *traffic.Sim
	)
	light, heavy := sz.replaySweeps, max(1, sz.replaySweeps/5)
	call := func(calls, sweeps int, fn func(i int)) *layerCall {
		return &layerCall{calls: calls, sweeps: sweeps, fn: fn}
	}
	jsonDecode := call(n, light, func(i int) {
		var o serve.Observation
		fail(json.NewDecoder(bytes.NewReader(jsonBodies[i])).Decode(&o))
	})
	jsonEncode := call(n, light, func(i int) {
		buf.Reset()
		fail(json.NewEncoder(&buf).Encode(&responses[i]))
	})
	wireDecode := call(n-1, light, func(i int) {
		_, err := serve.DecodeRequest(deltas[i+1], nil)
		fail(err)
	})
	advance := call(n-1, light, func(i int) {
		_, err := cache.Advance(string(session), hashes[i], chain[i+1].Frames[z-1:])
		fail(err)
	})
	advance.before = func() { cache.Store(string(session), chain[0].Frames) }
	wireEncode := call(n, light, func(i int) { wire = serve.AppendResponse(wire[:0], &responses[i]) })
	replicaB1 := call(n, light, func(i int) { fail(replica.DecideBatch(obs[i:i+1], out[:1])) })
	replicaB8 := call(b8, light, func(k int) { fail(replica.DecideBatch(obs[8*k:8*k+8], out)) })
	build := call(n, light, func(i int) { g = builder.BuildInto(g, frames[i]) })
	lstgatB1 := call(n, light, func(i int) { predictor.Predict(graphs[i]) })
	lstgatB8 := call(b8, light, func(k int) { predictor.PredictBatch(graphs[8*k:8*k+8], predOut) })
	assemble := call(n, light, func(i int) {
		state = head.AssembleState(spec, graphs[i], preds[i], graphs[i].AV, state)
	})
	selectB1 := call(n, light, func(i int) { agent.Act(states[i], false) })
	selectB8 := call(b8, light, func(k int) { agent.SelectActionBatch(states[8*k:8*k+8], actOut) })
	// Training steps cost milliseconds each: fewer sweeps keep the replay
	// short.
	trainBatch := call(batches, heavy, func(k int) {
		trainer.TrainBatch(ds.Samples[k*s.PredBatch : (k+1)*s.PredBatch])
	})
	trainStep := call(n-1, heavy, func(i int) { learner.Observe(transition(i)) })
	step := call(n, light, func(int) { stepSim.Step(coast) })
	step.before = func() {
		var err error
		stepSim, err = traffic.New(cfg.Traffic, rng)
		fail(err)
	}
	observe := call(n, light, func(i int) { sens.Observe(avs[i], scenes[i]) })

	timeCalls([]*layerCall{jsonDecode, jsonEncode, wireDecode, advance, wireEncode,
		replicaB1, replicaB8, build, lstgatB1, lstgatB8, assemble, selectB1, selectB8,
		trainBatch, trainStep, step, observe})
	if failure != nil {
		return nil, failure
	}

	flops := 0.0
	for _, g := range graphs[:8] {
		flops += lstgatFlops(s.PredictorConfig(), g)
	}
	parts := 8*build.median + lstgatB8.median + 8*assemble.median + selectB8.median
	return []metric{
		{"serve.json_decode_us", us(jsonDecode.median), "us"},
		{"serve.json_encode_us", us(jsonEncode.median), "us"},
		{"serve.wire_decode_us", us(wireDecode.median), "us"},
		{"serve.session_advance_us", us(advance.median), "us"},
		{"serve.wire_encode_us", us(wireEncode.median), "us"},
		{"serve.replica_b1_us", us(replicaB1.median), "us"},
		{"serve.replica_b8_us", us(replicaB8.median), "us"},
		{"serve.replica_unattributed_pct", 100 * (1 - float64(parts)/float64(replicaB8.median)), "%"},
		{"phantom.build_us", us(build.median), "us"},
		{"predict.lstgat_b1_us", us(lstgatB1.median), "us"},
		{"predict.lstgat_b8_us", us(lstgatB8.median), "us"},
		{"predict.lstgat_b8_gflops", flops / lstgatB8.median.Seconds() / 1e9, "GFLOP/s"},
		{"predict.train_batch_ms", ms(trainBatch.median), "ms"},
		{"head.assemble_us", us(assemble.median), "us"},
		{"rl.select_b1_us", us(selectB1.median), "us"},
		{"rl.select_b8_us", us(selectB8.median), "us"},
		{"rl.train_step_ms", ms(trainStep.median), "ms"},
		{"traffic.step_us", us(step.median), "us"},
		{"sensor.observe_us", us(observe.median), "us"},
	}, nil
}
