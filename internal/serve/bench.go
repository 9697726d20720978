package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"head/internal/obs"
)

// Row is one load-generator measurement: a named serving configuration
// (e.g. "b8" = server micro-batch 8) with its throughput and exact
// latency percentiles. cmd/headload appends rows to BENCH_serve.json and
// cmd/benchcheck gates on them (p99 ceiling, rps floor, micro-batch
// speedup).
type Row struct {
	Name     string `json:"name"`
	Sessions int    `json:"sessions"`
	Requests int64  `json:"requests"`
	Errors   int64  `json:"errors"`
	// DurationS is the measured window (after warm-up); RPS is
	// Requests/DurationS.
	DurationS float64 `json:"duration_s"`
	RPS       float64 `json:"rps"`
	// Latency percentiles are exact (computed from every recorded
	// request, not histogram-interpolated), in milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
	// The client-observed latency decomposed against the server-reported
	// phase timestamps of the response envelope, per percentile: queue is
	// the size-or-deadline batch wait, infer the seal + batched forwards,
	// net the remainder (network, serialization, client overhead). Each
	// component's percentile is taken over its own distribution, so the
	// three don't sum to the end-to-end percentile exactly — they answer
	// "where does a typical/worst queue wait sit", not "which request".
	QueueP50Ms float64 `json:"queue_p50_ms,omitempty"`
	QueueP99Ms float64 `json:"queue_p99_ms,omitempty"`
	InferP50Ms float64 `json:"infer_p50_ms,omitempty"`
	InferP99Ms float64 `json:"infer_p99_ms,omitempty"`
	NetP50Ms   float64 `json:"net_p50_ms,omitempty"`
	NetP99Ms   float64 `json:"net_p99_ms,omitempty"`
	// AvgBatch is the mean micro-batch occupancy the server reported.
	AvgBatch float64 `json:"avg_batch"`
	// Wire names the request encoding the row was measured under (json,
	// binary, or delta); empty means json (pre-wire rows).
	Wire string `json:"wire,omitempty"`
	// Request-body size percentiles (bytes on the wire, exact like the
	// latency percentiles) — the payload win delta encoding buys.
	BytesP50 float64 `json:"bytes_p50,omitempty"`
	BytesP99 float64 `json:"bytes_p99,omitempty"`
	// Resyncs counts delta requests refused with 409 resend-full during
	// the measured window; ResyncRate is Resyncs over all measured
	// requests. Structurally nonzero in delta mode (every episode restart
	// re-bases), so the gate is on throughput, not on zero resyncs.
	Resyncs    int64   `json:"resyncs,omitempty"`
	ResyncRate float64 `json:"resync_rate,omitempty"`
}

// BenchFile is the BENCH_serve.json schema: the usual snapshot framing
// plus one Row per measured serving configuration.
type BenchFile struct {
	Tool      string `json:"tool"`
	GoVersion string `json:"go_version"`
	Rows      []Row  `json:"rows"`
}

// ReadBench loads a BENCH_serve.json snapshot.
func ReadBench(path string) (BenchFile, error) {
	var f BenchFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("serve: parse %s: %w", path, err)
	}
	return f, nil
}

// FindRow returns the row with the given name.
func (f BenchFile) FindRow(name string) (Row, bool) {
	for _, r := range f.Rows {
		if r.Name == name {
			return r, true
		}
	}
	return Row{}, false
}

// ServeGate is the set of CI floors applied to a serve bench snapshot by
// cmd/benchcheck -serve. Zero values disable the corresponding gate.
type ServeGate struct {
	// Row selects which row the P99/RPS/error gates apply to; empty gates
	// every row in the file.
	Row string
	// MaxP99Ms fails a gated row whose p99 latency exceeds this ceiling.
	MaxP99Ms float64
	// MinRPS fails a gated row whose throughput is below this floor.
	MinRPS float64
	// Base and Cand name two rows whose throughput ratio (Cand.RPS /
	// Base.RPS) must reach MinSpeedup — the micro-batching win gate
	// (typically Base "b1", Cand "b8" at a fixed client count).
	Base, Cand string
	MinSpeedup float64
	// OverheadBase and OverheadCand name two rows measuring the same
	// serving configuration with a feature off (base) and on (cand);
	// the candidate's p99 may exceed the base's by at most MaxOverhead
	// (fractional — 0.05 allows +5%). The telemetry CI fence: request
	// tracing, SLO evaluation, and tail capture must stay out of the
	// tail.
	OverheadBase, OverheadCand string
	MaxOverhead                float64
	// WireBase and WireCand name two rows measuring the same serving
	// configuration under different wire encodings (typically JSON vs
	// binary delta). The candidate must beat the base by MinWireGain on
	// either axis: RPS ≥ base × (1+MinWireGain) OR p99 ≤ base ×
	// (1−MinWireGain) — a cheaper wire may cash out as throughput or as
	// tail latency depending on where the bottleneck sits.
	WireBase, WireCand string
	MinWireGain        float64
}

// Check evaluates the gates against a snapshot and returns one message per
// failure; an empty slice is a green gate.
func (g ServeGate) Check(f BenchFile) []string {
	var failures []string
	gated := f.Rows
	if g.Row != "" {
		r, ok := f.FindRow(g.Row)
		if !ok {
			return []string{fmt.Sprintf("row %q not in snapshot", g.Row)}
		}
		gated = []Row{r}
	}
	for _, r := range gated {
		if r.Errors > 0 {
			failures = append(failures, fmt.Sprintf("row %q: %d request errors", r.Name, r.Errors))
		}
		if g.MaxP99Ms > 0 && r.P99Ms > g.MaxP99Ms {
			failures = append(failures, fmt.Sprintf("row %q: p99 %.2fms exceeds %.2fms ceiling", r.Name, r.P99Ms, g.MaxP99Ms))
		}
		if g.MinRPS > 0 && r.RPS < g.MinRPS {
			failures = append(failures, fmt.Sprintf("row %q: %.0f rps below %.0f floor", r.Name, r.RPS, g.MinRPS))
		}
	}
	if g.Base != "" || g.Cand != "" {
		base, okB := f.FindRow(g.Base)
		cand, okC := f.FindRow(g.Cand)
		switch {
		case !okB || !okC:
			failures = append(failures, fmt.Sprintf("speedup rows %q/%q not both in snapshot", g.Base, g.Cand))
		case base.RPS <= 0:
			failures = append(failures, fmt.Sprintf("row %q: non-positive rps", g.Base))
		case cand.RPS/base.RPS < g.MinSpeedup:
			failures = append(failures, fmt.Sprintf("%s is %.2fx of %s, below the %.2fx floor",
				g.Cand, cand.RPS/base.RPS, g.Base, g.MinSpeedup))
		}
	}
	if g.OverheadBase != "" || g.OverheadCand != "" {
		base, okB := f.FindRow(g.OverheadBase)
		cand, okC := f.FindRow(g.OverheadCand)
		switch {
		case !okB || !okC:
			failures = append(failures, fmt.Sprintf("overhead rows %q/%q not both in snapshot", g.OverheadBase, g.OverheadCand))
		case base.P99Ms <= 0:
			failures = append(failures, fmt.Sprintf("row %q: non-positive p99", g.OverheadBase))
		case cand.P99Ms > base.P99Ms*(1+g.MaxOverhead):
			failures = append(failures, fmt.Sprintf("%s p99 %.2fms is +%.1f%% over %s p99 %.2fms, beyond the %.0f%% overhead ceiling",
				g.OverheadCand, cand.P99Ms, (cand.P99Ms/base.P99Ms-1)*100, g.OverheadBase, base.P99Ms, g.MaxOverhead*100))
		}
	}
	if g.WireBase != "" || g.WireCand != "" {
		base, okB := f.FindRow(g.WireBase)
		cand, okC := f.FindRow(g.WireCand)
		switch {
		case !okB || !okC:
			failures = append(failures, fmt.Sprintf("wire rows %q/%q not both in snapshot", g.WireBase, g.WireCand))
		case base.RPS <= 0 || base.P99Ms <= 0:
			failures = append(failures, fmt.Sprintf("row %q: non-positive rps or p99", g.WireBase))
		case cand.RPS < base.RPS*(1+g.MinWireGain) && cand.P99Ms > base.P99Ms*(1-g.MinWireGain):
			failures = append(failures, fmt.Sprintf(
				"%s vs %s: %.2fx rps and %+.1f%% p99 — needs ≥%.2fx rps or ≤−%.0f%% p99",
				g.WireCand, g.WireBase, cand.RPS/base.RPS, (cand.P99Ms/base.P99Ms-1)*100,
				1+g.MinWireGain, g.MinWireGain*100))
		}
	}
	return failures
}

// AppendRow adds row to the snapshot at path, creating the file when
// absent and replacing any existing row of the same name (so re-running a
// configuration updates it in place — the b1/b8 gate pair accumulates in
// one artifact).
func AppendRow(path string, row Row) error {
	f, err := ReadBench(path)
	if err != nil {
		if !os.IsNotExist(err) {
			return err
		}
		f = BenchFile{}
	}
	f.Tool = "headload"
	f.GoVersion = runtime.Version()
	replaced := false
	for i := range f.Rows {
		if f.Rows[i].Name == row.Name {
			f.Rows[i] = row
			replaced = true
			break
		}
	}
	if !replaced {
		f.Rows = append(f.Rows, row)
	}
	return obs.WriteJSONAtomic(path, f)
}
