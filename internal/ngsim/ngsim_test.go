package ngsim

import (
	"math"
	"math/rand"
	"testing"

	"head/internal/phantom"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Traffic.World.RoadLength = 500
	cfg.Traffic.Density = 120
	cfg.Rollouts = 1
	cfg.StepsPerRollout = 10
	cfg.EgosPerStep = 2
	cfg.WarmupSteps = 5
	return cfg
}

func TestGenerateProducesSamples(t *testing.T) {
	ds, err := Generate(smallConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() == 0 {
		t.Fatal("no samples generated")
	}
	for _, s := range ds.Samples {
		if s.Graph == nil || len(s.Graph.Steps) != 5 {
			t.Fatalf("sample graph malformed: %+v", s.Graph)
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.Rollouts = 0
	if _, err := Generate(cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Error("expected error for zero rollouts")
	}
}

func TestSampleTruthIsReasonable(t *testing.T) {
	ds, err := Generate(smallConfig(), rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	unmasked := 0
	for _, s := range ds.Samples {
		for i := 0; i < phantom.NumSlots; i++ {
			if s.Mask[i] {
				continue
			}
			unmasked++
			tr := s.Truth[i]
			// Truth is a one-step relative state: |d_lon| within sensor
			// range plus one step of closing, |v_rel| within 2·VMax.
			if math.Abs(tr[1]) > 150 || math.Abs(tr[2]) > 50 {
				t.Fatalf("implausible truth %v", tr)
			}
			if math.IsNaN(tr[0]) || math.IsNaN(tr[1]) || math.IsNaN(tr[2]) {
				t.Fatal("NaN in truth")
			}
		}
	}
	if unmasked == 0 {
		t.Fatal("every target masked — no usable supervision")
	}
}

func TestTruthConsistentWithGraph(t *testing.T) {
	// For an observed target the truth must be close to the last graph
	// feature plus one step of relative motion (within noise bounds).
	ds, err := Generate(smallConfig(), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, s := range ds.Samples {
		last := s.Graph.Steps[len(s.Graph.Steps)-1]
		for i := 0; i < phantom.NumSlots; i++ {
			if s.Mask[i] {
				continue
			}
			f := last[phantom.TargetNode(phantom.Slot(i))]
			// One step at relative velocity f[2] moves d_lon by ≈ f[2]*0.5
			// (the ego also moves, and the truth is relative to the ego at
			// t, so the target's own velocity also contributes ≈ v·Δt).
			if math.Abs(s.Truth[i][1]-f[1]) > 30 {
				t.Errorf("truth d_lon %g too far from last observed %g", s.Truth[i][1], f[1])
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}

func TestSplit(t *testing.T) {
	ds, err := Generate(smallConfig(), rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	train, test := ds.Split(0.8)
	if train.Len()+test.Len() != ds.Len() {
		t.Errorf("split loses samples: %d + %d != %d", train.Len(), test.Len(), ds.Len())
	}
	if train.Len() == 0 || test.Len() == 0 {
		t.Errorf("degenerate split: %d/%d", train.Len(), test.Len())
	}
	// Each half has its own backing array: appending to the train half
	// must not write over the first test sample.
	first := test.Samples[0]
	train.Samples = append(train.Samples, &Sample{})
	if test.Samples[0] != first {
		t.Error("appending to the train half changed the test half")
	}
	// Extremes clamp safely.
	tr, te := ds.Split(2.0)
	if tr.Len() != ds.Len() || te.Len() != 0 {
		t.Error("Split(2.0) should clamp")
	}
	tr, te = ds.Split(-1)
	if tr.Len() != 0 || te.Len() != ds.Len() {
		t.Error("Split(-1) should clamp")
	}
}

func TestShuffleKeepsAll(t *testing.T) {
	ds, err := Generate(smallConfig(), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	before := map[*Sample]bool{}
	for _, s := range ds.Samples {
		before[s] = true
	}
	ds.Shuffle(rand.New(rand.NewSource(6)))
	for _, s := range ds.Samples {
		if !before[s] {
			t.Fatal("Shuffle invented a sample")
		}
	}
	if len(before) != ds.Len() {
		t.Fatal("Shuffle lost samples")
	}
}

func TestGenerateDeterministicWithSeed(t *testing.T) {
	a, err := Generate(smallConfig(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Samples {
		if a.Samples[i].Truth != b.Samples[i].Truth {
			t.Fatal("same seed produced different truths")
		}
	}
}

func TestGenerateMultiHorizon(t *testing.T) {
	cfg := smallConfig()
	cfg.Horizon = 3
	ds, err := Generate(cfg, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() == 0 {
		t.Fatal("no samples")
	}
	found := false
	for _, s := range ds.Samples {
		if len(s.TruthK) != 2 || len(s.MaskK) != 2 {
			t.Fatalf("TruthK/MaskK lengths = %d/%d, want 2", len(s.TruthK), len(s.MaskK))
		}
		for i := 0; i < phantom.NumSlots; i++ {
			if s.Mask[i] || s.MaskK[0][i] || s.MaskK[1][i] {
				continue
			}
			found = true
			// Positions should evolve roughly monotonically with horizon
			// for forward-moving traffic: |t+3 d_lon - t+1 d_lon| bounded
			// by two steps of plausible motion.
			d := s.TruthK[1][i][1] - s.Truth[i][1]
			if math.Abs(d) > 60 {
				t.Fatalf("implausible two-step displacement %g", d)
			}
		}
	}
	if !found {
		t.Fatal("no target unmasked across all horizons")
	}
}
