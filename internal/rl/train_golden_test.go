package rl

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"head/internal/nn"
)

var updateGolden = flag.Bool("update", false, "rewrite the training golden hashes from the current code")

const trainGoldenPath = "testdata/golden_train.json"

// trainGolden pins the bytes of every agent's checkpoint after a fixed
// training run, keyed by a case name.
type trainGolden struct {
	// GoArch pins the hashes to the architecture that recorded them:
	// libm and FMA contraction differ across ports.
	GoArch string            `json:"goarch"`
	SHA256 map[string]string `json:"sha256"`
}

// goldenStream is a seeded synthetic transition source on the paper's
// state layout. About one feature in eight is exactly zero (as phantom
// rows are), and an episode ends every 17 to 40 steps.
type goldenStream struct {
	spec  StateSpec
	rng   *rand.Rand
	state []float64
	left  int
}

func newGoldenStream(seed int64) *goldenStream {
	g := &goldenStream{spec: DefaultStateSpec(), rng: rand.New(rand.NewSource(seed))}
	g.state = g.roll()
	g.left = 17 + g.rng.Intn(24)
	return g
}

func (g *goldenStream) roll() []float64 {
	s := make([]float64, g.spec.Dim())
	for i := range s {
		if g.rng.Intn(8) == 0 {
			continue
		}
		s[i] = g.rng.NormFloat64()
	}
	return s
}

// step returns the reward, the next state and whether the episode ended
// after action a.
func (g *goldenStream) step(a Action) (float64, []float64, bool) {
	r := g.rng.NormFloat64() - 0.1*a.A*a.A
	if a.B == 2 {
		r += 0.5
	}
	g.left--
	return r, g.roll(), g.left == 0
}

// trainGoldenCheckpoint drives agent through steps Act(…, true)/Observe
// calls and returns the sha256 of its nn.Save bytes.
func trainGoldenCheckpoint(t *testing.T, agent Agent, steps int) string {
	t.Helper()
	g := newGoldenStream(23)
	for i := 0; i < steps; i++ {
		a := agent.Act(g.state, true)
		r, next, done := g.step(a)
		agent.Observe(Transition{State: g.state, Action: a, Reward: r, Next: next, Done: done})
		if done {
			next = g.roll()
			g.left = 17 + g.rng.Intn(24)
		}
		g.state = next
	}
	var buf bytes.Buffer
	if err := nn.Save(&buf, agent.(nn.Module)); err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(h[:])
}

// goldenAgentConfig trains from step 64 on minibatches of 32, so 300
// steps make about 240 train steps; P-QP's 50-step phases alternate
// several times within them.
func goldenAgentConfig() PDQNConfig {
	cfg := DefaultPDQNConfig()
	cfg.Warmup = 64
	cfg.BatchSize = 32
	cfg.ReplayCap = 1000
	cfg.Eps = EpsSchedule{Start: 1, End: 0.1, DecaySteps: 200}
	return cfg
}

// TestTrainGolden pins the training arithmetic of every agent: 300
// exploring steps on a seeded synthetic stream, then the checkpoint hash.
// The experiments goldens never run a BP-DQN train step at their micro
// scale, so this is the test that holds the backward kernels, clipping,
// Adam and the soft target updates bit-identical. Regenerate deliberately
// with `go test ./internal/rl -run TestTrainGolden -update`.
func TestTrainGolden(t *testing.T) {
	const steps, hidden = 300, 48
	spec, aMax := DefaultStateSpec(), 3.0
	per := goldenAgentConfig()
	per.PER = true
	// Minibatches of 13 train in one whole chunk and one short one.
	batch13 := goldenAgentConfig()
	batch13.BatchSize = 13
	cases := []struct {
		name  string
		agent func(rng *rand.Rand) Agent
	}{
		{"BP-DQN", func(rng *rand.Rand) Agent { return NewBPDQN(goldenAgentConfig(), spec, aMax, hidden, rng) }},
		{"BP-DQN/PER", func(rng *rand.Rand) Agent { return NewBPDQN(per, spec, aMax, hidden, rng) }},
		{"BP-DQN/Batch13", func(rng *rand.Rand) Agent { return NewBPDQN(batch13, spec, aMax, hidden, rng) }},
		{"BP-DQN/BatchEnvs8", func(rng *rand.Rand) Agent {
			a := NewBPDQN(goldenAgentConfig(), spec, aMax, hidden, rng)
			a.SetBatchEnvs(8)
			t.Cleanup(a.Close)
			return a
		}},
		{"P-DQN", func(rng *rand.Rand) Agent { return NewVanillaPDQN(goldenAgentConfig(), spec, aMax, hidden, rng) }},
		{"P-QP", func(rng *rand.Rand) Agent { return NewPQP(goldenAgentConfig(), spec, aMax, hidden, rng) }},
		{"P-QP/Batch13", func(rng *rand.Rand) Agent { return NewPQP(batch13, spec, aMax, hidden, rng) }},
		{"P-DDPG", func(rng *rand.Rand) Agent { return NewPDDPG(goldenAgentConfig(), spec, aMax, hidden, rng) }},
	}
	got := trainGolden{GoArch: runtime.GOARCH, SHA256: map[string]string{}}
	for _, c := range cases {
		got.SHA256[c.name] = trainGoldenCheckpoint(t, c.agent(rand.New(rand.NewSource(5))), steps)
	}
	checkTrainGolden(t, got)
}

// checkTrainGolden compares got with the recorded file, or rewrites the
// file under -update.
func checkTrainGolden(t *testing.T, got trainGolden) {
	t.Helper()
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(trainGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trainGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %v", got.SHA256)
		return
	}
	data, err := os.ReadFile(trainGoldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to record): %v", err)
	}
	var want trainGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if want.GoArch != runtime.GOARCH {
		t.Skipf("golden recorded on %s, running on %s: float libm/FMA behavior is arch-specific", want.GoArch, runtime.GOARCH)
	}
	for name, w := range want.SHA256 {
		if got.SHA256[name] != w {
			t.Errorf("%s trained checkpoint diverged from the golden:\n  got  %s\n  want %s", name, got.SHA256[name], w)
		}
	}
	if len(got.SHA256) != len(want.SHA256) {
		t.Errorf("golden has %d cases, the test ran %d", len(want.SHA256), len(got.SHA256))
	}
}
