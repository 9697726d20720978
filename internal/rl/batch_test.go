package rl

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"head/internal/nn"
	"head/internal/tensor"
)

// randStates draws n random augmented states for spec.
func randStates(spec StateSpec, n int, rng *rand.Rand) [][]float64 {
	states := make([][]float64, n)
	for i := range states {
		s := make([]float64, spec.Dim())
		for j := range s {
			s[j] = rng.Float64()*2 - 1
		}
		states[i] = s
	}
	return states
}

// TestSelectActionBatchBitIdentity pins the agent-level contract of the
// batched execution engine: SelectActionBatch over N states equals N
// one-state greedy Acts bit-for-bit, for both the branched (BP-DQN) and the
// shared (P-DQN) network families, across batch sizes and repeated calls.
func TestSelectActionBatchBitIdentity(t *testing.T) {
	spec := DefaultStateSpec()
	agents := []struct {
		name string
		mk   func() *PDQN
	}{
		{"BP-DQN", func() *PDQN {
			return NewBPDQN(fastCfg(), spec, 3, 8, rand.New(rand.NewSource(70)))
		}},
		{"P-DQN", func() *PDQN {
			return NewVanillaPDQN(fastCfg(), spec, 3, 8, rand.New(rand.NewSource(70)))
		}},
	}
	for _, tc := range agents {
		agent := tc.mk()
		rng := rand.New(rand.NewSource(71))
		for trial := 0; trial < 8; trial++ {
			n := 1 + rng.Intn(9)
			states := randStates(spec, n, rng)
			want := make([]Action, n)
			for i, s := range states {
				a := agent.Act(s, false)
				raw := append([]float64(nil), a.Raw...)
				a.Raw = raw
				want[i] = a
			}
			got := make([]Action, n)
			agent.SelectActionBatch(states, got)
			for i := range states {
				if want[i].B != got[i].B {
					t.Fatalf("%s trial %d state %d: behavior %d vs %d", tc.name, trial, i, want[i].B, got[i].B)
				}
				if math.Float64bits(want[i].A) != math.Float64bits(got[i].A) {
					t.Fatalf("%s trial %d state %d: accel %v vs %v", tc.name, trial, i, want[i].A, got[i].A)
				}
				for j := range want[i].Raw {
					if math.Float64bits(want[i].Raw[j]) != math.Float64bits(got[i].Raw[j]) {
						t.Fatalf("%s trial %d state %d raw %d: %v vs %v",
							tc.name, trial, i, j, want[i].Raw[j], got[i].Raw[j])
					}
				}
			}
			// A one-state greedy Act after the batched pass must be untouched.
			again := agent.Act(states[0], false)
			if again.B != want[0].B || math.Float64bits(again.A) != math.Float64bits(want[0].A) {
				t.Fatalf("%s trial %d: Act perturbed after SelectActionBatch", tc.name, trial)
			}
		}
	}
}

// trainToy runs a fixed seeded training schedule and returns the final
// checkpoint bytes.
func trainToy(t *testing.T, batchEnvs int) []byte {
	t.Helper()
	env := newToyEnv(80)
	cfg := fastCfg()
	cfg.Warmup = 32
	agent := NewBPDQN(cfg, env.Spec(), env.AMax(), 8, rand.New(rand.NewSource(81)))
	agent.SetBatchEnvs(batchEnvs)
	defer agent.Close()
	for ep := 0; ep < 8; ep++ {
		state := append([]float64(nil), env.Reset()...)
		for {
			a := agent.Act(state, true)
			next, r, done := env.Step(a.B, a.A)
			agent.Observe(Transition{State: state, Action: a, Reward: r, Next: next, Done: done})
			state = append(state[:0], next...)
			if done {
				break
			}
		}
	}
	var buf bytes.Buffer
	if err := nn.Save(&buf, agent); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTrainBatchEnvsCheckpointIdentity is the training-side bit-identity
// gate: the replay prefetch pipeline (enabled by SetBatchEnvs > 1) must
// leave a seeded training run's checkpoint byte-identical to the width-1
// run.
func TestTrainBatchEnvsCheckpointIdentity(t *testing.T) {
	serial := trainToy(t, 1)
	batched := trainToy(t, 8)
	if !bytes.Equal(serial, batched) {
		t.Fatal("checkpoint bytes differ between batch-envs 1 and 8")
	}
}

// TestTargetValuesBatchMatchesSerial checks targetValues on a mixed
// done/non-done minibatch against one B-row forward of the target
// networks over the non-terminal next states.
func TestTargetValuesBatchMatchesSerial(t *testing.T) {
	spec := DefaultStateSpec()
	rng := rand.New(rand.NewSource(90))
	agent := NewBPDQN(fastCfg(), spec, 3, 8, rand.New(rand.NewSource(91)))
	states := randStates(spec, 12, rng)
	nexts := randStates(spec, 12, rng)
	batch := make([]Transition, 12)
	var live [][]float64
	for i := range batch {
		batch[i] = Transition{
			State:  states[i],
			Next:   nexts[i],
			Reward: rng.NormFloat64(),
			Done:   i%5 == 4,
			Action: Action{B: i % NumBehaviors, Raw: []float64{0.1, -0.2, 0.3}},
		}
		if !batch[i].Done {
			live = append(live, nexts[i])
		}
	}
	qN := agent.qT.Forward(live, agent.xT.Forward(live)).Clone()
	want := make([]float64, len(batch))
	row := 0
	for k, tr := range batch {
		want[k] = tr.Reward
		if !tr.Done {
			want[k] += agent.cfg.Gamma * qN.At(row, qN.ArgmaxRow(row))
			row++
		}
	}
	got := agent.targetValues(batch)
	for k := range want {
		if math.Float64bits(want[k]) != math.Float64bits(got[k]) {
			t.Fatalf("target %d: batched %v targetValues %v", k, want[k], got[k])
		}
	}
}

// TestNetsForwardRowBitIdentity checks the batch-of-one contract for the
// four decision networks: for a random B in 1..9, row e of one B-row
// forward is bit-identical to the one-row forward of state e.
func TestNetsForwardRowBitIdentity(t *testing.T) {
	spec := DefaultStateSpec()
	rng := rand.New(rand.NewSource(92))
	xnets := map[string]XNet{
		"BranchedX": NewBranchedX(spec, 8, 3, rng),
		"SharedX":   NewSharedX(spec, 8, 3, rng),
	}
	qnets := map[string]QNet{
		"BranchedQ": NewBranchedQ(spec, 8, rng),
		"SharedQ":   NewSharedQ(spec, 8, rng),
	}
	rowsEqual := func(name string, trial, e int, batched, one *tensor.Matrix) {
		t.Helper()
		for j := 0; j < batched.Cols; j++ {
			if math.Float64bits(batched.At(e, j)) != math.Float64bits(one.At(0, j)) {
				t.Fatalf("%s trial %d row %d col %d: batched %v one-row %v", name, trial, e, j, batched.At(e, j), one.At(0, j))
			}
		}
	}
	for trial := 0; trial < 8; trial++ {
		B := 1 + rng.Intn(9)
		states := randStates(spec, B, rng)
		xout := tensor.New(B, NumBehaviors)
		xout.RandUniform(rng, 3)
		for name, x := range xnets {
			batched := x.Forward(states).Clone()
			for e, s := range states {
				rowsEqual(name, trial, e, batched, x.Forward([][]float64{s}))
			}
		}
		for name, q := range qnets {
			batched := q.Forward(states, xout).Clone()
			for e, s := range states {
				one := tensor.FromSlice(1, NumBehaviors, xout.Row(e))
				rowsEqual(name, trial, e, batched, q.Forward([][]float64{s}, one))
			}
		}
	}
}

// TestQNetActionGrad pins the actor pass's critic backward: for both Q
// network families, ActionGrad must return the bits Backward returns for
// the same forward and gradient, and leave every parameter gradient
// untouched.
func TestQNetActionGrad(t *testing.T) {
	spec := DefaultStateSpec()
	rng := rand.New(rand.NewSource(93))
	qnets := map[string]func() QNet{
		"BranchedQ": func() QNet { return NewBranchedQ(spec, 8, rand.New(rand.NewSource(94))) },
		"SharedQ":   func() QNet { return NewSharedQ(spec, 8, rand.New(rand.NewSource(94))) },
	}
	for name, mk := range qnets {
		for trial := 0; trial < 6; trial++ {
			B := 1 + rng.Intn(9)
			states := randStates(spec, B, rng)
			xout := tensor.New(B, NumBehaviors)
			xout.RandUniform(rng, 3)
			d := tensor.New(B, NumBehaviors)
			d.RandUniform(rng, 1)

			q := mk()
			for _, p := range q.Params() {
				p.Grad.RandUniform(rng, 1)
			}
			before := make([][]float64, 0, len(q.Params()))
			for _, p := range q.Params() {
				before = append(before, append([]float64(nil), p.Grad.Data...))
			}
			q.Forward(states, xout)
			got := q.ActionGrad(d.Clone()).Clone()
			for i, p := range q.Params() {
				for j, g := range p.Grad.Data {
					if math.Float64bits(g) != math.Float64bits(before[i][j]) {
						t.Fatalf("%s trial %d: ActionGrad wrote %s.Grad[%d]", name, trial, p.Name, j)
					}
				}
			}

			ref := mk()
			ref.Forward(states, xout)
			want := ref.Backward(d.Clone())
			for j, w := range want.Data {
				if math.Float64bits(w) != math.Float64bits(got.Data[j]) {
					t.Fatalf("%s trial %d: ActionGrad[%d] = %v, Backward gives %v", name, trial, j, got.Data[j], w)
				}
			}
		}
	}
}
