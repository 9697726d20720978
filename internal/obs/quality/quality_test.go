package quality

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"head/internal/world"
)

func TestHistObserveBins(t *testing.T) {
	h := NewHist([]float64{1, 2, 3})
	for _, v := range []float64{-5, 0.5, 1} { // all land in bin 0 (≤1)
		h.Observe(v)
	}
	h.Observe(1.5) // bin 1
	h.Observe(9)   // overflow bin
	want := []int64{3, 1, 0, 1}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Fatalf("counts = %v, want %v", h.Counts, want)
		}
	}
	if h.Total != 5 {
		t.Fatalf("total = %d, want 5", h.Total)
	}
}

func TestCompareIdenticalDistributions(t *testing.T) {
	base, win := NewHist([]float64{1, 2}), NewHist([]float64{1, 2})
	for i := 0; i < 300; i++ {
		v := float64(i%3) + 0.5
		base.Observe(v)
		win.Observe(v)
	}
	psi, kl, err := Compare(base, win)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(psi) > 1e-12 || math.Abs(kl) > 1e-12 {
		t.Fatalf("identical distributions: psi=%g kl=%g, want ~0", psi, kl)
	}
}

func TestCompareShiftedDistribution(t *testing.T) {
	base, win := NewHist([]float64{1, 2}), NewHist([]float64{1, 2})
	for i := 0; i < 100; i++ {
		base.Observe(0.5) // all mass in bin 0
		win.Observe(2.5)  // all mass in overflow
	}
	psi, kl, err := Compare(base, win)
	if err != nil {
		t.Fatal(err)
	}
	if psi < 1 || kl < 1 {
		t.Fatalf("fully shifted distribution: psi=%g kl=%g, want large", psi, kl)
	}
	if math.IsInf(psi, 0) || math.IsNaN(psi) || math.IsInf(kl, 0) || math.IsNaN(kl) {
		t.Fatalf("zero-mass bins must stay finite: psi=%g kl=%g", psi, kl)
	}
}

func TestCompareEmptyWindowIsNotDrift(t *testing.T) {
	base, win := NewHist([]float64{1}), NewHist([]float64{1})
	base.Observe(0.5)
	psi, kl, err := Compare(base, win)
	if err != nil || psi != 0 || kl != 0 {
		t.Fatalf("empty window: psi=%g kl=%g err=%v, want 0, 0, nil", psi, kl, err)
	}
}

func TestCompareBinMismatch(t *testing.T) {
	a, b := NewHist([]float64{1, 2}), NewHist([]float64{1, 2, 3})
	a.Observe(0)
	b.Observe(0)
	if _, _, err := Compare(a, b); err == nil {
		t.Fatal("bin-count mismatch must error")
	}
	c := NewHist([]float64{1, 5})
	c.Observe(0)
	if _, _, err := Compare(a, c); err == nil {
		t.Fatal("bin-edge mismatch must error")
	}
}

func TestCompareEmptyBaselineErrors(t *testing.T) {
	base, win := NewHist([]float64{1}), NewHist([]float64{1})
	win.Observe(0.5)
	if _, _, err := Compare(base, win); err == nil {
		t.Fatal("empty baseline with a populated window must error")
	}
}

func TestRecorderFilterAndBaselineRoundTrip(t *testing.T) {
	rec := NewRecorder("HEAD")
	if rec.Enabled("IDM-LC") {
		t.Fatal("recorder must filter other methods")
	}
	if !rec.Enabled("HEAD") {
		t.Fatal("recorder must profile its own method")
	}
	rec.Observe(Sample{
		Behavior: int(world.LaneKeep), Accel: 0.4, Speed: 18, Neighbors: 3,
		TTC: 4.2, TTCValid: true, AttnEntropy: 1.1, AttnValid: true,
		Reward: 0.3, Safety: 0.1, Efficiency: 0.2, Comfort: -0.05, Impact: 0,
		RewardValid: true,
	})
	b := rec.Baseline(Baseline{Tool: "test", Scale: "quick", Seed: 7, ConfigHash: "abc", Episodes: 1})
	if b.Steps != 1 {
		t.Fatalf("steps = %d, want 1", b.Steps)
	}
	if b.Metrics[MetricTTC].Total != 1 || b.Metrics[MetricReward].Total != 1 {
		t.Fatal("ttc/reward histograms not recorded")
	}

	path := filepath.Join(t.TempDir(), BaselineFile)
	if err := b.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(b)
	bb, _ := json.Marshal(got)
	if !bytes.Equal(a, bb) {
		t.Fatalf("baseline did not round-trip:\n%s\n%s", a, bb)
	}
}

func TestReadBaselineRejectsMalformed(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"empty.json": `{"tool":"x"}`,
		"bins.json":  `{"tool":"x","metrics":{"speed":{"bounds":[1,2],"counts":[1]}}}`,
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadBaseline(p); err == nil {
			t.Fatalf("%s: want error on malformed baseline", name)
		}
	}
}

// TestRecorderOrderIndependence pins the determinism contract baselines
// rely on: the same sample set folded in any order (any worker count)
// serializes to the same bytes.
func TestRecorderOrderIndependence(t *testing.T) {
	samples := make([]Sample, 64)
	for i := range samples {
		samples[i] = Sample{
			Behavior: i % 3, Accel: float64(i%7) - 3, Speed: float64(i % 25),
			Neighbors: i % 9, TTC: float64(i%12) + 0.3, TTCValid: i%2 == 0,
			AttnEntropy: float64(i%18) / 10, AttnValid: true,
			Reward: float64(i%11) - 5, RewardValid: i%3 == 0,
		}
	}
	forward := NewRecorder("")
	for _, s := range samples {
		forward.Observe(s)
	}
	shuffled := NewRecorder("")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(samples); i += 4 {
				shuffled.Observe(samples[i])
			}
		}(w)
	}
	wg.Wait()
	a, _ := json.Marshal(forward.Baseline(Baseline{Tool: "t"}))
	b, _ := json.Marshal(shuffled.Baseline(Baseline{Tool: "t"}))
	if !bytes.Equal(a, b) {
		t.Fatal("recorder fold is order-dependent")
	}
}

func TestMeanAttnEntropy(t *testing.T) {
	// Uniform rows over 4 entries: entropy ln 4 each, mean the same.
	rows := [][]float64{{0.25, 0.25, 0.25, 0.25}, {1, 1, 1, 1}}
	h, ok := MeanAttnEntropy(rows)
	if !ok || math.Abs(h-math.Log(4)) > 1e-12 {
		t.Fatalf("uniform rows: h=%g ok=%v, want ln4", h, ok)
	}
	// A one-hot row has zero entropy.
	if h, ok := MeanAttnEntropy([][]float64{{0, 1, 0}}); !ok || h != 0 {
		t.Fatalf("one-hot row: h=%g ok=%v, want 0, true", h, ok)
	}
	// No positive mass anywhere: not a valid summary.
	if _, ok := MeanAttnEntropy([][]float64{{0, 0}, nil}); ok {
		t.Fatal("zero rows must report ok=false")
	}
	if _, ok := MeanAttnEntropy(nil); ok {
		t.Fatal("nil rows must report ok=false")
	}
}

func TestLeaderTTC(t *testing.T) {
	av := world.State{Lat: 2, Lon: 100, V: 20}
	vehicles := []struct {
		id int
		st world.State
	}{
		{3, world.State{Lat: 2, Lon: 140, V: 10}}, // same lane, ahead, slower → leader candidate
		{1, world.State{Lat: 2, Lon: 120, V: 15}}, // same lane, nearer → the leader
		{9, world.State{Lat: 3, Lon: 110, V: 5}},  // other lane: ignored
		{2, world.State{Lat: 2, Lon: 80, V: 30}},  // behind: ignored
	}
	veh := func(i int) (int, world.State) { return vehicles[i].id, vehicles[i].st }
	ttc, ok := LeaderTTC(av, len(vehicles), veh, 5)
	if !ok {
		t.Fatal("expected a leader on a collision course")
	}
	// Gap = 120-100-5 = 15, closing at 5 m/s → TTC 3s.
	if math.Abs(ttc-3) > 1e-12 {
		t.Fatalf("ttc = %g, want 3", ttc)
	}
	// Leader faster than the AV: no collision course.
	fast := []struct {
		id int
		st world.State
	}{{1, world.State{Lat: 2, Lon: 120, V: 25}}}
	if _, ok := LeaderTTC(av, 1, func(i int) (int, world.State) { return fast[i].id, fast[i].st }, 5); ok {
		t.Fatal("opening gap must not report a TTC")
	}
	if _, ok := LeaderTTC(av, 0, nil, 5); ok {
		t.Fatal("no vehicles must not report a TTC")
	}
}

// TestLeaderTTCNegativeID: wire IDs may be any int, so a leader with a
// negative ID must be kept against a farther vehicle. Gap 120−100−5 = 15 m
// closing at 10 m/s is 1.5 s; the farther vehicle would give 8.5 s.
func TestLeaderTTCNegativeID(t *testing.T) {
	av := world.State{Lat: 2, Lon: 100, V: 20}
	for _, ids := range [][2]int{{7, 3}, {-5, 3}} {
		vehicles := []struct {
			id int
			st world.State
		}{
			{ids[0], world.State{Lat: 2, Lon: 120, V: 10}},
			{ids[1], world.State{Lat: 2, Lon: 190, V: 10}},
		}
		veh := func(i int) (int, world.State) { return vehicles[i].id, vehicles[i].st }
		ttc, ok := LeaderTTC(av, len(vehicles), veh, 5)
		if !ok || math.Abs(ttc-1.5) > 1e-12 {
			t.Errorf("leader ID %d: ttc = %g, %v; want 1.5, true", ids[0], ttc, ok)
		}
	}
}
