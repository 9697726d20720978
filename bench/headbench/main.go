// Command headbench is the repository benchmark: it measures the HEAD
// decision service, the batched evaluation loop and both training phases
// end to end, and every model layer on its own, from one command.
//
// Usage (from the repository root):
//
//	go -C bench run ./headbench --seed N                      # every workload, one child process each
//	go -C bench run ./headbench --workload serve-json --seed N [--seconds 15] [--trace 0|1]
//
// bench/run.sh builds the binary from source and runs it with the same
// flags; that is the command BENCHMARK.json names. All load is generated
// in-process from --seed: the serve workloads call the decision service's
// HTTP handler directly, so a run opens no sockets. Each run prints its
// metrics as "name value unit" lines and, as its last line, one JSON object
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A run whose outputs fail a correctness check prints no
// metrics and exits non-zero. See bench/README.md for the metric
// dictionary.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"head/internal/obs/span"
)

// traceRoot is where a traced run writes <workload>/trace.json, relative to
// the working directory (the repository root).
const traceRoot = ".bench_build/trace"

// traceCapacity bounds the span ring of a traced pass. It holds every span
// of one traced pass of the largest workload (serve: ~25k requests of 8
// spans), so headtrace sees complete request and step trees.
const traceCapacity = 1 << 18

// maxSetupReps caps the set-up repetitions of a run.
const maxSetupReps = 200

// procs is the number of cores every run uses; the program's "all cores"
// worker pools resolve to it. One core: on a shared 2-vCPU machine the
// two cores' combined speed moved by ±20% from one run to the next, one
// core's by about half that, and a benchmark must resolve changes of 10%.
const procs = 1

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// pass is one timed run of a prepared workload.
type pass struct {
	// ops are per-operation latencies in ms; the operation is the
	// workload's unit of work as its caller waits for it.
	ops []float64
	// throughput is work items completed per second at saturation.
	throughput float64
	// attempted and failed count operations; failed ones got no result.
	attempted, failed int64
	// work counts the work items (the unit of throughput) the whole pass
	// processed; opsPerJob is the amount in one job, which repeats exactly
	// for a given seed.
	work, opsPerJob int64
	// digest fingerprints the outputs; it must not depend on timing.
	digest string
	// unattributedPct is the share of the traced operations' time that no
	// program phase span covers (traced passes only).
	unattributedPct float64
	// extra holds workload-specific measurements, printed but not part of
	// the JSON result.
	extra []metric
	// notes are warnings about the measurement itself.
	notes []string
}

// instance is a workload with its inputs generated and its reference
// outputs computed.
type instance interface {
	// measure runs the timed phase for about seconds. A non-nil tracer
	// selects the traced variant: the program's spans and the benchmark's
	// own land on it.
	measure(seconds time.Duration, tr *span.Tracer) (pass, error)
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// prepare generates the inputs from seed and computes the reference
	// outputs; it is the set-up that setup_s times.
	prepare func(seed int64, seconds time.Duration, sz *sizes) (instance, error)
}

var workloads = []workload{
	{"serve-json", func(seed int64, seconds time.Duration, sz *sizes) (instance, error) {
		return prepareServe(seed, seconds, sz, false)
	}},
	{"serve-delta", func(seed int64, seconds time.Duration, sz *sizes) (instance, error) {
		return prepareServe(seed, seconds, sz, true)
	}},
	{"sim-eval", prepareEval},
	{"train-predict", preparePredict},
	{"train-rl", prepareRL},
}

// sizes scales the workloads. The benchmark always runs fullSizes; the
// smoke test shrinks them so every workload runs in well under a second.
type sizes struct {
	setupReps   int
	setupBudget time.Duration

	// serve: vehicles walk chains of consecutive snapshots, sending one
	// request per period, then drainPer requests back to back each.
	vehicles, chains, chainLen, drainPer int
	period, warmup                       time.Duration

	// sim-eval: episodes per evaluation job, lock-step group width, and
	// how many leading episodes the serial reference reruns.
	evalEpisodes, batchEnvs, refEpisodes int

	// train: the Record scale's budgets.
	rlEpisodes, rlWarmup, predEpochs, datasetRollouts, datasetSteps int

	// layer replay: captured inputs and timed sweeps over them.
	replayInputs, replaySweeps int
}

func fullSizes() sizes {
	return sizes{
		setupReps: 3, setupBudget: time.Second,
		vehicles: 500, chains: 32, chainLen: 64, drainPer: 16,
		period: time.Second, warmup: 2 * time.Second,
		evalEpisodes: 128, batchEnvs: 8, refEpisodes: 8,
		rlEpisodes: 150, rlWarmup: 300, predEpochs: 12, datasetRollouts: 4, datasetSteps: 40,
		replayInputs: 64, replaySweeps: 15,
	}
}

// report is everything one workload run prints.
type report struct {
	attempted, failed int64
	e2e, layer, extra []metric
	notes             []string
}

func main() {
	name := flag.String("workload", "", "workload to run (empty runs every workload, each in its own child process)")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 15, "how long each run measures")
	trace := flag.Int("trace", 0, "1 runs the traced variant: per-layer metrics and "+traceRoot+"/<workload>/trace.json")
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *name == "" {
		if err := runAll(*seed, *seconds, *trace); err != nil {
			fatalf("%v", err)
		}
		return
	}
	w, ok := lookup(*name)
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	sz := fullSizes()
	rep, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, &sz, traceRoot)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	if err := rep.print(os.Stdout, *trace == 1); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "headbench: "+format+"\n", args...)
	os.Exit(1)
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runAll runs every workload one after another, each in a child process of
// its own, so no workload's heap or goroutines affect the next.
func runAll(seed int64, seconds float64, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		fmt.Printf("== %s\n", w.name)
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, w.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %v", failed)
	}
	return nil
}

// run prepares a workload repeatedly (setup_s is the median), measures it
// untraced, and for a traced run measures it again traced, checks both
// passes produced the same outputs, writes the trace and replays every
// layer.
func run(w workload, seed int64, seconds time.Duration, traced bool, sz *sizes, traceDir string) (*report, error) {
	var inst instance
	var setups []float64
	// At least setupReps set-ups, and more within setupBudget (up to
	// maxSetupReps), so that a set-up of milliseconds still has a steady
	// median.
	runtime.GC()
	for start := time.Now(); len(setups) < sz.setupReps ||
		(time.Since(start) < sz.setupBudget && len(setups) < maxSetupReps); {
		inst = nil
		t0 := time.Now()
		in, err := w.prepare(seed, seconds, sz)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		inst = in
	}

	runtime.GC()
	heap := startHeapSampler()
	alloc := takeAllocCounter()
	p, err := inst.measure(seconds, nil)
	peak := heap.stopMB()
	allocBytes, gcs := alloc.since()
	if err != nil {
		return nil, err
	}
	if len(p.ops) == 0 || p.throughput <= 0 || p.attempted == 0 {
		return nil, errors.New("no operation completed")
	}
	sorted := sortedCopy(p.ops)
	rep := &report{
		attempted: p.attempted,
		failed:    p.failed,
		e2e: []metric{
			{"p50_ms", percentile(sorted, 50), "ms"},
			{"throughput_per_s", p.throughput, "1/s"},
			{"setup_s", median(setups), "s"},
			{"peak_heap_mb", peak, "MB"},
		},
		// The p99 is reported, not gated: its run-to-run spread on a
		// shared machine exceeds any bound that would still catch a
		// regression (bench/README.md, "Calibration").
		extra: append([]metric{
			{"p99_ms", percentile(sorted, 99), "ms"},
			{"latency_samples", float64(len(p.ops)), "count"},
			{"ops_per_job", float64(p.opsPerJob), "count"},
		}, p.extra...),
		notes: p.notes,
	}
	if !traced {
		return rep, nil
	}

	runtime.GC()
	tr := span.New(span.Config{Capacity: traceCapacity})
	tp, err := inst.measure(seconds, tr)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	if tp.digest != p.digest {
		return nil, fmt.Errorf("traced outputs differ from untraced ones (digest %s vs %s)", tp.digest, p.digest)
	}
	rep.attempted += tp.attempted
	rep.failed += tp.failed
	if err := writeTrace(tr, filepath.Join(traceDir, w.name)); err != nil {
		return nil, err
	}
	layers, err := replayLayers(seed, sz)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	items := float64(p.work)
	rep.layer = append(layers,
		metric{"trace_overhead_pct", (p.throughput/tp.throughput - 1) * 100, "%"},
		metric{"trace.unattributed_pct", tp.unattributedPct, "%"},
		metric{"runtime.alloc_kb_per_item", float64(allocBytes) / 1024 / items, "KB"},
		metric{"runtime.gc_per_kitem", float64(gcs) * 1000 / items, "count"},
	)
	// The traced pass repeats the untraced pass's workload lines; only the
	// lines it alone measures are added.
	seen := map[string]bool{}
	for _, m := range rep.extra {
		seen[m.name] = true
	}
	for _, m := range tp.extra {
		if !seen[m.name] {
			rep.extra = append(rep.extra, m)
		}
	}
	return rep, nil
}

// writeTrace exports the traced pass to dir/trace.json and checks it the
// way headtrace -check does: phases plus self time must reproduce the step
// and request totals within 1%.
func writeTrace(tr *span.Tracer, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "trace.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	f, err = os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	a, err := span.ReadChrome(f)
	if err != nil {
		return err
	}
	if a.Dropped > 0 {
		return fmt.Errorf("trace dropped %d spans; raise traceCapacity", a.Dropped)
	}
	_, _, _, stepErr := a.Coverage()
	_, _, _, reqErr := a.RequestCoverage()
	if stepErr > 0.01 || reqErr > 0.01 {
		return fmt.Errorf("trace accounting identity fails: step error %.3f%%, request error %.3f%%", stepErr*100, reqErr*100)
	}
	return nil
}

// print writes every metric as a "name value unit" line, then the JSON
// result line: end-to-end metrics for an untraced run, per-layer metrics
// for a traced one.
func (r *report) print(w io.Writer, traced bool) error {
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, "headbench: warning:", n)
	}
	for _, group := range [][]metric{r.e2e, r.extra, r.layer} {
		for _, m := range group {
			fmt.Fprintf(w, "%s %s %s\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	result := r.e2e
	if traced {
		result = r.layer
	}
	for _, m := range result {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
