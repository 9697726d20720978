package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {51, 6}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// p99 of 100 samples is the 99th value, not an interpolation.
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 99); got != 99 {
		t.Errorf("percentile(1..100, 99) = %v, want 99", got)
	}
	if got := percentile([]float64{7}, 50); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3, 1, 2) = %v, want 2", got)
	}
}

func TestGeneratorAccounting(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	var g genStats
	// Due every 10 ms; the second request is sent 4 ms late because the
	// first one was still in flight.
	g.observe(at(0), at(0), at(14))
	g.observe(at(10), at(14), at(16))
	g.observe(at(20), at(20), at(21))
	if want := []float64{14, 6, 1}; !equal(g.latMs, want) {
		t.Errorf("latencies %v, want %v (counted from the due time)", g.latMs, want)
	}
	if want := []float64{0, 4, 0}; !equal(g.lateMs, want) {
		t.Errorf("lateness %v, want %v", g.lateMs, want)
	}
	if got := g.offered(); got != 1 {
		t.Errorf("offered ratio %v, want 1: the generator caught up", got)
	}
	// A generator that keeps falling behind spreads the same requests over
	// a longer span, so it offers less load than scheduled.
	var slow genStats
	for k := 0; k < 4; k++ {
		slow.observe(at(10*k), at(12*k), at(12*k+1))
	}
	if got, want := slow.offered(), 30.0/36; math.Abs(got-want) > 1e-12 {
		t.Errorf("offered ratio %v, want %v", got, want)
	}
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// smokeSizes shrinks every workload so the whole smoke test runs in
// seconds.
func smokeSizes() sizes {
	return sizes{
		setupReps: 1,
		vehicles:  8, chains: 2, chainLen: 8, drainPer: 2,
		period: 40 * time.Millisecond, warmup: 40 * time.Millisecond,
		evalEpisodes: 2, batchEnvs: 2, refEpisodes: 2,
		rlEpisodes: 8, rlWarmup: 10, predEpochs: 1, datasetRollouts: 1, datasetSteps: 10,
		replayInputs: 8, replaySweeps: 1,
	}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var b struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	index := func(es []entry) map[string]string {
		m := map[string]string{}
		for _, e := range es {
			m[e.Name] = e.Unit
		}
		return m
	}
	return index(b.EndToEnd), index(b.PerLayer)
}

// TestWorkloadsSmoke runs every workload, traced, at shrunken sizes: the
// correctness checks must pass and every declared metric must be emitted
// exactly once with its declared unit.
func TestWorkloadsSmoke(t *testing.T) {
	e2e, layer := declared(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(t *testing.T, kind string, got []metric, want map[string]string) {
		t.Helper()
		seen := map[string]bool{}
		for _, m := range got {
			if !name.MatchString(m.name) {
				t.Errorf("%s metric name %q is malformed", kind, m.name)
			}
			if seen[m.name] {
				t.Errorf("%s metric %s emitted twice", kind, m.name)
			}
			seen[m.name] = true
			if unit, ok := want[m.name]; !ok {
				t.Errorf("%s metric %s is not declared in BENCHMARK.json", kind, m.name)
			} else if unit != m.unit {
				t.Errorf("%s metric %s has unit %q, BENCHMARK.json declares %q", kind, m.name, m.unit, unit)
			}
			if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
				t.Errorf("%s metric %s = %v", kind, m.name, m.value)
			}
		}
		for n := range want {
			if !seen[n] {
				t.Errorf("declared %s metric %s not emitted", kind, n)
			}
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			sz := smokeSizes()
			rep, err := run(w, 3, 150*time.Millisecond, true, &sz, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			check(t, "end-to-end", rep.e2e, e2e)
			check(t, "per-layer", rep.layer, layer)
			if rep.attempted <= 0 || rep.failed != 0 {
				t.Errorf("attempted %d, failed %d", rep.attempted, rep.failed)
			}
			for _, m := range rep.e2e {
				if m.value <= 0 {
					t.Errorf("%s = %v, want a positive value", m.name, m.value)
				}
			}
			for _, m := range rep.extra {
				if (m.name == "latency_samples" || m.name == "ops_per_job") && m.value <= 0 {
					t.Errorf("%s = %v, want a positive count", m.name, m.value)
				}
			}

			var out bytes.Buffer
			if err := rep.print(&out, true); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var result map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
				t.Fatalf("last line is not JSON: %v", err)
			}
			if len(result) != 4 || result["correct"] == nil || result["attempted"] == nil ||
				result["failed"] == nil || result["metrics"] == nil {
				t.Errorf("result keys %v, want exactly correct, attempted, failed, metrics", result)
			}
		})
	}
}
