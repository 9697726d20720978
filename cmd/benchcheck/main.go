// Command benchcheck parses `go test -bench -benchmem` output, enforces an
// allocation ceiling on the compute core's zero-allocation benchmarks, and
// writes the parsed rows as BENCH_alloc.json so CI archives comparable
// numbers across commits (alongside BENCH_rl.json and BENCH_predict.json).
//
// Usage:
//
//	go test -run '^$' -bench 'LSTGATForward|BPDQNSelectAction|EnvStep' \
//	    -benchmem -benchtime=200x . | benchcheck -out BENCH_alloc.json
//
// benchcheck exits non-zero when a matched benchmark exceeds -max-allocs
// (default 0 allocs/op) or when no benchmark matched at all — a renamed or
// deleted benchmark must fail the gate, not silently pass it.
//
// Two further gates are optional:
//
//   - -prev snapshot.json compares each matched benchmark's ns/op against
//     the same-named row of a previous benchcheck snapshot and fails on a
//     regression beyond -tolerance (default 0.15, i.e. +15%). Rows absent
//     from the previous snapshot are reported but never fail.
//   - -speedup-serial / -speedup-batch / -speedup-envs / -min-speedup
//     derive the per-environment speedup of a batched benchmark over its
//     serial counterpart (serial ns/op ÷ (batch ns/op ÷ envs)) and fail
//     below the floor. The computed ratio is recorded in the snapshot.
//
// A separate mode gates serving snapshots instead of bench output:
//
//	benchcheck -serve BENCH_serve.json [-serve-row b8] [-serve-p99 150] [-min-rps 500] \
//	    [-serve-base b1 -serve-cand b8 -min-serve-speedup 1.2] \
//	    [-overhead-base notel -overhead-cand tel -max-overhead 0.05] \
//	    [-wire-base b8 -wire-cand b8-delta -min-wire-gain 0.15]
//
// -serve reads a cmd/headload snapshot and enforces a p99 latency ceiling
// (milliseconds), a throughput floor, zero request errors, a
// micro-batching throughput win between two named rows (candidate rps ÷
// base rps), a feature-overhead ceiling between two named rows (the
// candidate's p99 at most (1+max-overhead)× the base's — the telemetry
// tax fence), and a wire-pair gain floor between a JSON row and a
// binary/delta row (the candidate must improve rps or p99 by
// -min-wire-gain). No bench output is read in this mode.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"head/internal/experiments"
	"head/internal/serve"
)

// AllocRow is one parsed benchmark result line.
type AllocRow struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Speedup records the derived batched-vs-serial throughput ratio in the
// snapshot, so the perf trajectory of the batched engine is archived
// alongside the raw rows.
type Speedup struct {
	Serial   string  `json:"serial"`
	Batch    string  `json:"batch"`
	Envs     int     `json:"envs"`
	SerialNs float64 `json:"serial_ns_per_op"`
	BatchNs  float64 `json:"batch_ns_per_op"`
	PerEnvNs float64 `json:"batch_ns_per_env"`
	Ratio    float64 `json:"ratio"`
	MinRatio float64 `json:"min_ratio"`
}

// snapshot is BenchSnapshot plus the optional derived speedup record.
type snapshot struct {
	experiments.BenchSnapshot
	Speedup *Speedup `json:"speedup,omitempty"`
}

// cpuSuffix strips the -GOMAXPROCS suffix go test appends to bench names.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// parse extracts benchmark result rows from `go test -bench` output.
func parse(r io.Reader) ([]AllocRow, error) {
	var rows []AllocRow
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		row := AllocRow{Name: cpuSuffix.ReplaceAllString(strings.TrimPrefix(fields[0], "Benchmark"), "")}
		row.Iterations, _ = strconv.ParseInt(fields[1], 10, 64)
		for i := 2; i+1 < len(fields); i += 2 {
			v := fields[i]
			switch fields[i+1] {
			case "ns/op":
				row.NsPerOp, _ = strconv.ParseFloat(v, 64)
			case "B/op":
				row.BytesPerOp, _ = strconv.ParseInt(v, 10, 64)
			case "allocs/op":
				row.AllocsPerOp, _ = strconv.ParseInt(v, 10, 64)
			}
		}
		rows = append(rows, row)
	}
	return rows, sc.Err()
}

// readPrev loads the rows of a previous benchcheck snapshot by name.
func readPrev(path string) (map[string]AllocRow, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap struct {
		Rows []AllocRow `json:"rows"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, err
	}
	prev := make(map[string]AllocRow, len(snap.Rows))
	for _, r := range snap.Rows {
		prev[r.Name] = r
	}
	return prev, nil
}

// regression reports whether row slowed down beyond tolerance relative to
// its previous measurement (ok is false when the row is new).
func regression(row AllocRow, prev map[string]AllocRow, tolerance float64) (was float64, regressed, ok bool) {
	p, ok := prev[row.Name]
	if !ok || p.NsPerOp <= 0 {
		return 0, false, false
	}
	return p.NsPerOp, row.NsPerOp > p.NsPerOp*(1+tolerance), true
}

// speedup derives the per-environment batched-vs-serial throughput ratio.
func speedup(rows []AllocRow, serial, batch string, envs int, minRatio float64) (*Speedup, error) {
	byName := make(map[string]AllocRow, len(rows))
	for _, r := range rows {
		byName[r.Name] = r
	}
	s, ok := byName[serial]
	if !ok {
		return nil, fmt.Errorf("speedup: serial benchmark %q not in input", serial)
	}
	b, ok := byName[batch]
	if !ok {
		return nil, fmt.Errorf("speedup: batch benchmark %q not in input", batch)
	}
	if envs <= 0 || s.NsPerOp <= 0 || b.NsPerOp <= 0 {
		return nil, fmt.Errorf("speedup: non-positive inputs (envs %d, serial %.0f, batch %.0f)", envs, s.NsPerOp, b.NsPerOp)
	}
	perEnv := b.NsPerOp / float64(envs)
	return &Speedup{
		Serial: serial, Batch: batch, Envs: envs,
		SerialNs: s.NsPerOp, BatchNs: b.NsPerOp, PerEnvNs: perEnv,
		Ratio: s.NsPerOp / perEnv, MinRatio: minRatio,
	}, nil
}

func main() {
	in := flag.String("in", "-", "bench output to parse (- for stdin)")
	out := flag.String("out", "BENCH_alloc.json", "snapshot path ('' disables)")
	maxAllocs := flag.Int64("max-allocs", 0, "allocs/op ceiling per matched benchmark")
	match := flag.String("match", "^(LSTGATForward|BPDQNSelectAction|EnvStep)$",
		"regexp selecting the gated benchmarks")
	prevPath := flag.String("prev", "", "previous benchcheck snapshot to compare ns/op against ('' disables the regression gate)")
	tolerance := flag.Float64("tolerance", 0.15, "allowed fractional ns/op regression vs -prev (0.15 = +15%)")
	spSerial := flag.String("speedup-serial", "", "serial benchmark name for the speedup gate ('' disables)")
	spBatch := flag.String("speedup-batch", "", "batched benchmark name for the speedup gate")
	spEnvs := flag.Int("speedup-envs", 8, "environments per op of the batched benchmark")
	minSpeedup := flag.Float64("min-speedup", 1.2, "per-env speedup floor of batch over serial")
	servePath := flag.String("serve", "", "gate a cmd/headload BENCH_serve.json snapshot instead of bench output ('' disables)")
	serveRow := flag.String("serve-row", "", "serve row the p99/rps gates apply to ('' gates every row)")
	serveP99 := flag.Float64("serve-p99", 0, "p99 latency ceiling in ms for gated serve rows (0 disables)")
	minRPS := flag.Float64("min-rps", 0, "throughput floor in requests/s for gated serve rows (0 disables)")
	serveBase := flag.String("serve-base", "", "baseline serve row for the micro-batching speedup gate ('' disables)")
	serveCand := flag.String("serve-cand", "", "candidate serve row for the micro-batching speedup gate")
	minServeSp := flag.Float64("min-serve-speedup", 1.2, "throughput floor of candidate over baseline serve row")
	ovBase := flag.String("overhead-base", "", "feature-off serve row for the overhead gate ('' disables)")
	ovCand := flag.String("overhead-cand", "", "feature-on serve row for the overhead gate")
	maxOverhead := flag.Float64("max-overhead", 0.05, "allowed fractional p99 increase of overhead-cand over overhead-base")
	wireBase := flag.String("wire-base", "", "JSON-wire serve row for the wire-pair gate ('' disables)")
	wireCand := flag.String("wire-cand", "", "binary/delta-wire serve row for the wire-pair gate")
	minWireGain := flag.Float64("min-wire-gain", 0.15, "wire-cand must beat wire-base by this fraction on rps OR p99")
	flag.Parse()

	if *servePath != "" {
		os.Exit(checkServe(*servePath, serve.ServeGate{
			Row: *serveRow, MaxP99Ms: *serveP99, MinRPS: *minRPS,
			Base: *serveBase, Cand: *serveCand, MinSpeedup: *minServeSp,
			OverheadBase: *ovBase, OverheadCand: *ovCand, MaxOverhead: *maxOverhead,
			WireBase: *wireBase, WireCand: *wireCand, MinWireGain: *minWireGain,
		}))
	}

	start := time.Now()
	src := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(1)
		}
		defer f.Close()
		src = f
	}
	rows, err := parse(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
	re, err := regexp.Compile(*match)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
	var prev map[string]AllocRow
	if *prevPath != "" {
		if prev, err = readPrev(*prevPath); err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(1)
		}
	}

	gated, failed := 0, 0
	for _, row := range rows {
		if !re.MatchString(row.Name) {
			continue
		}
		gated++
		verdict := "ok"
		if row.AllocsPerOp > *maxAllocs {
			verdict = fmt.Sprintf("FAIL (> %d allocs/op)", *maxAllocs)
			failed++
		}
		if prev != nil && verdict == "ok" {
			switch was, regressed, known := regression(row, prev, *tolerance); {
			case !known:
				verdict = "ok (no previous measurement)"
			case regressed:
				verdict = fmt.Sprintf("FAIL (was %.0f ns/op, +%.0f%% > %.0f%% tolerance)",
					was, (row.NsPerOp/was-1)*100, *tolerance*100)
				failed++
			default:
				verdict = fmt.Sprintf("ok (was %.0f ns/op)", was)
			}
		}
		fmt.Printf("benchcheck: %-28s %12.0f ns/op %6d B/op %4d allocs/op  %s\n",
			row.Name, row.NsPerOp, row.BytesPerOp, row.AllocsPerOp, verdict)
	}

	var sp *Speedup
	if *spSerial != "" {
		sp, err = speedup(rows, *spSerial, *spBatch, *spEnvs, *minSpeedup)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(1)
		}
		verdict := "ok"
		if sp.Ratio < sp.MinRatio {
			verdict = fmt.Sprintf("FAIL (< %.2fx floor)", sp.MinRatio)
			failed++
		}
		fmt.Printf("benchcheck: %s/%d envs = %.0f ns/env vs %s %.0f ns/op: %.2fx per-env speedup  %s\n",
			sp.Batch, sp.Envs, sp.PerEnvNs, sp.Serial, sp.SerialNs, sp.Ratio, verdict)
	}

	if *out != "" {
		snap := snapshot{
			BenchSnapshot: experiments.BenchSnapshot{
				Tool:      "benchcheck",
				Scale:     "bench",
				GoVersion: runtime.Version(),
				DurationS: time.Since(start).Seconds(),
				Rows:      rows,
			},
			Speedup: sp,
		}
		if err := writeJSON(*out, snap); err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(1)
		}
	}

	if gated == 0 {
		fmt.Fprintln(os.Stderr, "benchcheck: no benchmark matched", *match)
		os.Exit(1)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: %d gate failures across %d gated benchmarks\n", failed, gated)
		os.Exit(1)
	}
}

// checkServe gates a cmd/headload serving snapshot: it prints every row,
// evaluates the ServeGate floors, and returns the process exit code.
func checkServe(path string, gate serve.ServeGate) int {
	f, err := serve.ReadBench(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		return 1
	}
	if len(f.Rows) == 0 {
		fmt.Fprintln(os.Stderr, "benchcheck: no rows in", path)
		return 1
	}
	for _, r := range f.Rows {
		fmt.Printf("benchcheck: serve %-10s %4d sessions %8d req %8.0f rps  p50 %7.2fms p90 %7.2fms p99 %7.2fms  avg batch %.2f  errors %d\n",
			r.Name, r.Sessions, r.Requests, r.RPS, r.P50Ms, r.P90Ms, r.P99Ms, r.AvgBatch, r.Errors)
		if r.Wire != "" && r.Wire != "json" {
			fmt.Printf("benchcheck: serve %-10s wire %s: bytes/req p50 %.0f p99 %.0f, %d resyncs (%.4f/req)\n",
				r.Name, r.Wire, r.BytesP50, r.BytesP99, r.Resyncs, r.ResyncRate)
		}
	}
	if gate.Base != "" && gate.Cand != "" {
		if base, ok := f.FindRow(gate.Base); ok {
			if cand, ok := f.FindRow(gate.Cand); ok && base.RPS > 0 {
				fmt.Printf("benchcheck: serve %s/%s throughput ratio %.2fx (floor %.2fx)\n",
					gate.Cand, gate.Base, cand.RPS/base.RPS, gate.MinSpeedup)
			}
		}
	}
	if gate.OverheadBase != "" && gate.OverheadCand != "" {
		if base, ok := f.FindRow(gate.OverheadBase); ok {
			if cand, ok := f.FindRow(gate.OverheadCand); ok && base.P99Ms > 0 {
				fmt.Printf("benchcheck: serve %s vs %s p99 overhead %+.1f%% (ceiling +%.0f%%)\n",
					gate.OverheadCand, gate.OverheadBase, (cand.P99Ms/base.P99Ms-1)*100, gate.MaxOverhead*100)
			}
		}
	}
	if gate.WireBase != "" && gate.WireCand != "" {
		if base, ok := f.FindRow(gate.WireBase); ok {
			if cand, ok := f.FindRow(gate.WireCand); ok && base.RPS > 0 && base.P99Ms > 0 {
				fmt.Printf("benchcheck: serve %s vs %s wire gain: %.2fx rps, %+.1f%% p99 (need ≥%.2fx rps or ≤−%.0f%% p99)\n",
					gate.WireCand, gate.WireBase, cand.RPS/base.RPS,
					(cand.P99Ms/base.P99Ms-1)*100, 1+gate.MinWireGain, gate.MinWireGain*100)
			}
		}
	}
	failures := gate.Check(f)
	for _, msg := range failures {
		fmt.Fprintln(os.Stderr, "benchcheck: FAIL:", msg)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: %d serve gate failures\n", len(failures))
		return 1
	}
	fmt.Println("benchcheck: serve gates ok")
	return 0
}

func writeJSON(path string, snap snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
