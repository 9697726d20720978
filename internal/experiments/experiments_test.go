package experiments

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// micro is an even smaller scale than Quick, for CI-speed tests.
func micro() Scale {
	s := Quick()
	s.RoadLength = 400
	s.Density = 80
	s.MaxSteps = 60
	s.TrainEpisodes = 2
	s.TestEpisodes = 2
	s.RLHidden = 8
	s.RLWarmup = 40
	s.PredHidden = 8
	s.PredEpochs = 1
	s.DatasetRollouts = 1
	s.DatasetSteps = 8
	return s
}

func TestTableI(t *testing.T) {
	rows, err := TableI(micro())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"IDM-LC", "ACC-LC", "DRL-SC", "TP-BTS", "HEAD"}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r.Method != want[i] {
			t.Errorf("row %d method = %q, want %q", i, r.Method, want[i])
		}
		if r.Episodes == 0 || r.AvgVA <= 0 {
			t.Errorf("row %s has empty metrics: %+v", r.Method, r)
		}
	}
	var buf bytes.Buffer
	PrintEndToEnd(&buf, "Table I", rows)
	if !strings.Contains(buf.String(), "HEAD") || !strings.Contains(buf.String(), "AvgDT-A") {
		t.Error("report missing expected content")
	}
}

func TestTableII(t *testing.T) {
	rows, err := TableII(micro())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"HEAD-w/o-PVC", "HEAD-w/o-LST-GAT", "HEAD-w/o-BP-DQN", "HEAD-w/o-IMP", "HEAD"}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r.Method != want[i] {
			t.Errorf("row %d method = %q, want %q", i, r.Method, want[i])
		}
	}
}

func TestTableIIIIV(t *testing.T) {
	rows, err := TableIIIIV(micro())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"LSTM-MLP", "ED-LSTM", "GAS-LED", "LST-GAT"}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r.Name != want[i] {
			t.Errorf("row %d = %q, want %q", i, r.Name, want[i])
		}
		if r.Model.Count == 0 {
			t.Errorf("%s evaluated zero targets", r.Name)
		}
		if r.TCT <= 0 || r.AvgIT <= 0 {
			t.Errorf("%s has zero timings", r.Name)
		}
	}
	var buf bytes.Buffer
	PrintPredRows(&buf, rows)
	if !strings.Contains(buf.String(), "LST-GAT") {
		t.Error("report missing LST-GAT")
	}
}

func TestTableVVI(t *testing.T) {
	rows, err := TableVVI(micro())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"P-QP", "P-DDPG", "P-DQN", "BP-DQN"}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r.Name != want[i] {
			t.Errorf("row %d = %q, want %q", i, r.Name, want[i])
		}
		if r.Stats.Steps == 0 {
			t.Errorf("%s evaluated zero steps", r.Name)
		}
	}
	var buf bytes.Buffer
	PrintRLRows(&buf, rows)
	if !strings.Contains(buf.String(), "BP-DQN") {
		t.Error("report missing BP-DQN")
	}
}

func TestTableVIITinyAxis(t *testing.T) {
	// Sweep only one tiny axis to keep the test fast: monkey with the
	// scale and use the full API through TableVII's internals via
	// eval.SearchWeights — here we just check TableVII end to end with a
	// micro scale and the paper axes trimmed by construction cost.
	s := micro()
	s.TrainEpisodes = 1
	s.TestEpisodes = 1
	rows, err := TableVII(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d axes, want 4", len(rows))
	}
	var buf bytes.Buffer
	PrintAxisResults(&buf, rows)
	if !strings.Contains(buf.String(), "w1") {
		t.Error("report missing w1")
	}
}

func TestScalePresets(t *testing.T) {
	q, p := Quick(), Paper()
	if q.TrainEpisodes >= p.TrainEpisodes {
		t.Error("Quick should train fewer episodes than Paper")
	}
	if p.RoadLength != 3000 || p.Density != 180 || p.TestEpisodes != 500 {
		t.Errorf("Paper preset diverges from the publication: %+v", p)
	}
}

// TestConfigHashIgnoresThroughputKnobs: Workers and BatchEnvs change
// wall-clock time only, so they must not split the config hash (a
// baseline written by a parallel, batched headtrain run must match a
// headserve process that sets neither), while a results-relevant knob
// such as Seed must.
func TestConfigHashIgnoresThroughputKnobs(t *testing.T) {
	want := Quick().ConfigHash()
	for _, workers := range []int{0, 1, 8} {
		for _, envs := range []int{0, 1, 8} {
			s := Quick()
			s.Workers, s.BatchEnvs = workers, envs
			if got := s.ConfigHash(); got != want {
				t.Errorf("Workers=%d BatchEnvs=%d: hash %s, want %s", workers, envs, got, want)
			}
		}
	}
	s := Quick()
	s.Seed++
	if s.ConfigHash() == want {
		t.Error("changing Seed left the config hash unchanged")
	}
}

// TestWriteBenchJSONFailureKeepsOldFile: a snapshot whose rows fail to
// encode (encoding/json rejects NaN) leaves the previous snapshot
// byte-identical and no temporary file beside it.
func TestWriteBenchJSONFailureKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_rl.json")
	start := time.Now()
	if err := WriteBenchJSON(path, "rlbench", "micro", micro(), start, []float64{1}); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBenchJSON(path, "rlbench", "micro", micro(), start, []float64{math.NaN()}); err == nil {
		t.Fatal("NaN row encoded without error")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Errorf("failed write changed the snapshot:\n%s\nwant\n%s", got, old)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("directory holds %d entries after a failed write, want 1", len(entries))
	}
}
