package experiments

import (
	"fmt"
	"runtime"
	"time"

	"head/internal/obs"
)

// ConfigHash hashes the scale's results-relevant configuration: it
// excludes the attached observability sinks and the Workers/BatchEnvs
// throughput knobs, so two runs with the same results-relevant knobs hash
// equal whether or not they were observed, traced, or quality-profiled,
// and at any parallel or batched width.
func (s Scale) ConfigHash() string {
	hs := s
	hs.Metrics, hs.Progress, hs.Trace, hs.Quality = nil, nil, nil, nil
	hs.Workers, hs.BatchEnvs = 0, 0
	return obs.Hash(hs)
}

// BenchSnapshot is the machine-readable form of one benchmark run — the
// perf-trajectory record rlbench and predictbench write as BENCH_rl.json
// and BENCH_predict.json, so CI can archive comparable numbers across
// commits.
type BenchSnapshot struct {
	Tool       string  `json:"tool"`
	Scale      string  `json:"scale"`
	Seed       int64   `json:"seed"`
	Workers    int     `json:"workers"`
	ConfigHash string  `json:"config_hash"`
	GoVersion  string  `json:"go_version"`
	DurationS  float64 `json:"duration_s"`
	// Rows carries the table rows verbatim ([]RLRow or []PredRow;
	// durations serialize as nanoseconds).
	Rows any `json:"rows"`
}

// WriteBenchJSON writes one benchmark snapshot for rows produced by a
// table run that started at start.
func WriteBenchJSON(path, tool, scaleName string, s Scale, start time.Time, rows any) error {
	snap := BenchSnapshot{
		Tool:       tool,
		Scale:      scaleName,
		Seed:       s.Seed,
		Workers:    s.Workers,
		ConfigHash: s.ConfigHash(),
		GoVersion:  runtime.Version(),
		DurationS:  time.Since(start).Seconds(),
		Rows:       rows,
	}
	if err := obs.WriteJSONAtomic(path, snap); err != nil {
		return fmt.Errorf("bench json: %w", err)
	}
	return nil
}
