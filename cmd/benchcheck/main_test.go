package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
BenchmarkLSTGATForward-4            	     200	    150000 ns/op	       0 B/op	       0 allocs/op
BenchmarkLSTGATPredictBatch-4       	     100	    800000 ns/op	       0 B/op	       0 allocs/op
BenchmarkBPDQNSelectActionBatch-4   	     100	     90000 ns/op	       0 B/op	       0 allocs/op
PASS
`

func TestParse(t *testing.T) {
	rows, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	if rows[0].Name != "LSTGATForward" || rows[0].NsPerOp != 150000 || rows[0].AllocsPerOp != 0 {
		t.Errorf("row 0 = %+v", rows[0])
	}
	if rows[1].Name != "LSTGATPredictBatch" {
		t.Errorf("cpu suffix not stripped: %q", rows[1].Name)
	}
}

func TestRegression(t *testing.T) {
	prev := map[string]AllocRow{"X": {Name: "X", NsPerOp: 100}}
	for _, tc := range []struct {
		ns        float64
		regressed bool
	}{
		{100, false}, {110, false}, {114, false}, {116, true}, {300, true},
	} {
		_, regressed, known := regression(AllocRow{Name: "X", NsPerOp: tc.ns}, prev, 0.15)
		if !known {
			t.Fatalf("ns=%g: row unexpectedly unknown", tc.ns)
		}
		if regressed != tc.regressed {
			t.Errorf("ns=%g: regressed=%v, want %v", tc.ns, regressed, tc.regressed)
		}
	}
	if _, _, known := regression(AllocRow{Name: "new"}, prev, 0.15); known {
		t.Error("unknown row reported as known")
	}
}

func TestSpeedup(t *testing.T) {
	rows, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := speedup(rows, "LSTGATForward", "LSTGATPredictBatch", 8, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	// 800000/8 = 100000 ns/env vs 150000 ns/op serial → 1.5x.
	if math.Abs(sp.PerEnvNs-100000) > 1e-9 || math.Abs(sp.Ratio-1.5) > 1e-9 {
		t.Errorf("speedup = %+v", sp)
	}
	if _, err := speedup(rows, "Nope", "LSTGATPredictBatch", 8, 1.2); err == nil {
		t.Error("missing serial benchmark not rejected")
	}
	if _, err := speedup(rows, "LSTGATForward", "Nope", 8, 1.2); err == nil {
		t.Error("missing batch benchmark not rejected")
	}
}

func TestReadPrev(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prev.json")
	if err := os.WriteFile(path, []byte(`{"tool":"benchcheck","rows":[{"name":"X","ns_per_op":123}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	prev, err := readPrev(path)
	if err != nil {
		t.Fatal(err)
	}
	if prev["X"].NsPerOp != 123 {
		t.Errorf("prev = %+v", prev)
	}
	if _, err := readPrev(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file not rejected")
	}
}
