// Package quality is the decision-quality half of the observability
// stack: where internal/obs watches whether the service is fast and up,
// this package watches whether it still drives like the model that was
// shipped. An evaluation run profiles the trained policy's behavior into
// a baseline of fixed-bin histograms (behavior mix, commanded
// acceleration, front-leader TTC, LST-GAT attention entropy, reward
// decomposition, traffic context) written as quality_baseline.json next
// to the checkpoint; the serving path folds every decision into
// rolling-window histograms over the same bins and scores the window
// against the baseline with PSI and KL divergence.
//
// Everything here is strictly out of band: recorders and monitors are
// write-only sinks, never feed back into decisions, and are nil-safe
// throughout — the served decisions are bit-identical with quality
// monitoring off or on, which the serve identity tests gate.
package quality

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"

	"head/internal/obs"
	"head/internal/world"
)

// BaselineFile is the file name ExportQualityBaseline-style producers
// write inside a checkpoint directory and headserve auto-loads from one.
const BaselineFile = "quality_baseline.json"

// Metric names shared by the baseline profile and the serving monitor.
// The first six are observable on the wire (request observation +
// decision), so the monitor drifts on exactly these; the reward family
// needs ground truth and exists in baselines only.
const (
	MetricBehavior    = "behavior"     // chosen discrete behavior (world.Behavior)
	MetricAccel       = "accel"        // commanded acceleration, pre-clamp, m/s²
	MetricTTC         = "ttc"          // front-leader TTC from the sensor view, s
	MetricAttnEntropy = "attn_entropy" // mean LST-GAT attention-row entropy, nats
	MetricSpeed       = "speed"        // AV velocity at decision time, m/s
	MetricNeighbors   = "neighbors"    // observed vehicles in the decision frame

	MetricReward     = "reward"
	MetricSafety     = "safety"
	MetricEfficiency = "efficiency"
	MetricComfort    = "comfort"
	MetricImpact     = "impact"
)

// ServeMetrics are the metrics observable in the serving path; a Monitor
// tracks the intersection of this list with the loaded baseline.
var ServeMetrics = []string{
	MetricBehavior, MetricAccel, MetricTTC,
	MetricAttnEntropy, MetricSpeed, MetricNeighbors,
}

// Canonical bin edges (inclusive upper bounds; one implicit overflow bin
// follows the last edge). Both sides of a PSI comparison must bin
// identically, so these are fixed here rather than configured: ttc reuses
// the eval harness's safety-histogram bounds, attention entropy spans
// [0, ln 6] (six target slots), behavior gets one bin per discrete value,
// and accel/speed cover the default world envelope (±AMax, VMax) with the
// overflow bins absorbing non-default worlds.
var (
	behaviorBounds = []float64{0.5, 1.5} // bins: ll(0), lr(1), lk(2)
	accelBounds    = []float64{-3, -2, -1, -0.5, -0.1, 0.1, 0.5, 1, 2, 3}
	ttcBounds      = []float64{0.5, 1, 1.5, 2, 3, 4, 5, 7, 10, 15}
	entropyBounds  = []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6}
	speedBounds    = []float64{2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 25}
	neighborBounds = []float64{0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 8.5, 10.5, 12.5}
	rewardBounds   = []float64{-5, -2, -1, -0.5, -0.2, 0, 0.2, 0.5, 1, 2, 5}
	termBounds     = []float64{-2, -1, -0.5, -0.2, -0.1, 0, 0.1, 0.2, 0.5, 1, 2}
)

// metricBounds maps every known metric to its canonical edges.
var metricBounds = map[string][]float64{
	MetricBehavior:    behaviorBounds,
	MetricAccel:       accelBounds,
	MetricTTC:         ttcBounds,
	MetricAttnEntropy: entropyBounds,
	MetricSpeed:       speedBounds,
	MetricNeighbors:   neighborBounds,
	MetricReward:      rewardBounds,
	MetricSafety:      termBounds,
	MetricEfficiency:  termBounds,
	MetricComfort:     termBounds,
	MetricImpact:      termBounds,
}

// Hist is a fixed-bin count histogram: Bounds are inclusive upper edges,
// Counts has one extra overflow bin, and only integer counts are kept so
// a baseline built from concurrently recorded samples serializes to the
// same bytes regardless of worker count or observation order. Not safe
// for concurrent use on its own — Recorder and Monitor lock around it.
type Hist struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Total  int64     `json:"total"`
}

// NewHist returns an empty histogram over the given upper edges.
func NewHist(bounds []float64) *Hist {
	return &Hist{
		Bounds: append([]float64(nil), bounds...),
		Counts: make([]int64, len(bounds)+1),
	}
}

// Observe folds one value. Values above the last edge land in the
// overflow bin; values below the first edge in the first bin.
func (h *Hist) Observe(v float64) {
	i := 0
	for i < len(h.Bounds) && v > h.Bounds[i] {
		i++
	}
	h.Counts[i]++
	h.Total++
}

// Clone deep-copies the histogram.
func (h *Hist) Clone() *Hist {
	return &Hist{
		Bounds: append([]float64(nil), h.Bounds...),
		Counts: append([]int64(nil), h.Counts...),
		Total:  h.Total,
	}
}

// zero resets the counts in place, keeping the bins.
func (h *Hist) zero() {
	for i := range h.Counts {
		h.Counts[i] = 0
	}
	h.Total = 0
}

// addInto accumulates h's counts into dst, which must share h's bins.
func (h *Hist) addInto(dst *Hist) {
	for i, c := range h.Counts {
		dst.Counts[i] += c
	}
	dst.Total += h.Total
}

// sameBins reports whether two histograms bin identically.
func sameBins(a, b *Hist) bool {
	if len(a.Bounds) != len(b.Bounds) || len(a.Counts) != len(b.Counts) {
		return false
	}
	for i, e := range a.Bounds {
		if b.Bounds[i] != e {
			return false
		}
	}
	return true
}

// psiEpsilon floors zero-mass bins before the log-ratio terms — the
// standard PSI smoothing, keeping a bin that one side never populated
// from contributing an infinite term.
const psiEpsilon = 1e-4

// Compare scores a rolling window against a baseline over shared bins:
// PSI = Σ (p−q)·ln(p/q) and KL(window‖baseline) = Σ p·ln(p/q), where p is
// the window distribution and q the baseline's, both epsilon-floored and
// renormalized. An empty window is no evidence of drift and scores zero;
// mismatched bins or an empty baseline are configuration errors.
func Compare(base, win *Hist) (psi, kl float64, err error) {
	if base == nil || win == nil {
		return 0, 0, fmt.Errorf("quality: Compare on nil histogram")
	}
	if !sameBins(base, win) {
		return 0, 0, fmt.Errorf("quality: bin mismatch (baseline %d bins, window %d)",
			len(base.Counts), len(win.Counts))
	}
	if win.Total == 0 {
		return 0, 0, nil
	}
	if base.Total == 0 {
		return 0, 0, fmt.Errorf("quality: empty baseline histogram")
	}
	p := smoothed(win)
	q := smoothed(base)
	for i := range p {
		r := math.Log(p[i] / q[i])
		psi += (p[i] - q[i]) * r
		kl += p[i] * r
	}
	return psi, kl, nil
}

// smoothed converts counts into an epsilon-floored, renormalized
// probability distribution.
func smoothed(h *Hist) []float64 {
	p := make([]float64, len(h.Counts))
	sum := 0.0
	for i, c := range h.Counts {
		v := float64(c) / float64(h.Total)
		if v < psiEpsilon {
			v = psiEpsilon
		}
		p[i] = v
		sum += v
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// Sample is one decision-time observation of the policy: what the
// vehicle saw (speed, neighbor count, front-leader TTC, attention
// entropy) and what it decided (behavior, pre-clamp acceleration), plus
// the reward decomposition when ground truth is available (eval only).
type Sample struct {
	Behavior    int
	Accel       float64
	Speed       float64
	Neighbors   int
	TTC         float64
	TTCValid    bool
	AttnEntropy float64
	AttnValid   bool

	Reward, Safety, Efficiency, Comfort, Impact float64
	RewardValid                                 bool
}

// Recorder accumulates decision samples into the canonical histograms —
// the baseline-building side of the PSI comparison. Safe for concurrent
// use; integer counts make the folded result independent of observation
// order, so profiled evaluations stay deterministic across worker counts.
type Recorder struct {
	method string

	mu      sync.Mutex
	metrics map[string]*Hist
	steps   int64
}

// NewRecorder returns a recorder that profiles decisions of the named
// controller only ("" profiles every controller) — table runs evaluate
// several methods over the same harness, and the baseline must describe
// exactly one policy.
func NewRecorder(method string) *Recorder {
	m := make(map[string]*Hist, len(metricBounds))
	for name, bounds := range metricBounds {
		m[name] = NewHist(bounds)
	}
	return &Recorder{method: method, metrics: m}
}

// Enabled reports whether decisions of the named controller should be
// recorded. Nil-safe: a nil recorder records nothing.
func (r *Recorder) Enabled(method string) bool {
	return r != nil && (r.method == "" || r.method == method)
}

// Observe folds one decision sample.
func (r *Recorder) Observe(s Sample) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.steps++
	observeSample(r.metrics, s)
}

// observeSample folds s into a canonical metric map (shared with the
// monitor's window buckets so both sides bin identically by construction).
func observeSample(m map[string]*Hist, s Sample) {
	if h := m[MetricBehavior]; h != nil {
		h.Observe(float64(s.Behavior))
	}
	if h := m[MetricAccel]; h != nil {
		h.Observe(s.Accel)
	}
	if h := m[MetricSpeed]; h != nil {
		h.Observe(s.Speed)
	}
	if h := m[MetricNeighbors]; h != nil {
		h.Observe(float64(s.Neighbors))
	}
	if h := m[MetricTTC]; h != nil && s.TTCValid {
		h.Observe(s.TTC)
	}
	if h := m[MetricAttnEntropy]; h != nil && s.AttnValid {
		h.Observe(s.AttnEntropy)
	}
	if s.RewardValid {
		for name, v := range map[string]float64{
			MetricReward: s.Reward, MetricSafety: s.Safety,
			MetricEfficiency: s.Efficiency, MetricComfort: s.Comfort,
			MetricImpact: s.Impact,
		} {
			if h := m[name]; h != nil {
				h.Observe(v)
			}
		}
	}
}

// Steps returns how many samples the recorder has folded.
func (r *Recorder) Steps() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.steps
}

// Baseline is the exported behavioral profile: run provenance (tool,
// scale, seed, config hash — the same identity fields the run manifest
// carries) plus the recorded histograms. Its JSON form is deterministic:
// integer counts, map keys in sorted order, no timestamps.
type Baseline struct {
	Tool       string           `json:"tool"`
	Scale      string           `json:"scale,omitempty"`
	Seed       int64            `json:"seed"`
	ConfigHash string           `json:"config_hash,omitempty"`
	Episodes   int              `json:"episodes"`
	Steps      int64            `json:"steps"`
	Metrics    map[string]*Hist `json:"metrics"`
}

// Baseline snapshots the recorder into meta (which carries the
// provenance fields; Steps and Metrics are filled in).
func (r *Recorder) Baseline(meta Baseline) *Baseline {
	r.mu.Lock()
	defer r.mu.Unlock()
	meta.Steps = r.steps
	meta.Metrics = make(map[string]*Hist, len(r.metrics))
	for name, h := range r.metrics {
		meta.Metrics[name] = h.Clone()
	}
	return &meta
}

// Write stores the baseline as indented JSON with a trailing newline,
// through obs.WriteJSONAtomic.
func (b *Baseline) Write(path string) error {
	return obs.WriteJSONAtomic(path, b)
}

// ReadBaseline loads a baseline written by Write, rejecting files without
// usable histograms so a truncated or foreign JSON fails loudly at load
// time rather than as zero PSI forever.
func ReadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("quality: %s: %w", path, err)
	}
	if len(b.Metrics) == 0 {
		return nil, fmt.Errorf("quality: %s: no metrics — not a quality baseline", path)
	}
	for name, h := range b.Metrics {
		if h == nil || len(h.Counts) != len(h.Bounds)+1 {
			return nil, fmt.Errorf("quality: %s: metric %q has malformed bins", path, name)
		}
	}
	return &b, nil
}

// MeanAttnEntropy is the scalar attention summary both sides of the PSI
// comparison share: the mean Shannon entropy (nats) of the renormalized
// attention rows. Rows with no positive mass are skipped; ok is false
// when no row contributed. The serving replica calls this on the rows of
// one request inside the batched attention cache, the evaluation harness
// on the serial predictor's rows — identical float operations in
// identical order, so matched traffic scores PSI ≈ 0.
func MeanAttnEntropy(rows [][]float64) (float64, bool) {
	sum, n := 0.0, 0
	for _, row := range rows {
		if h, ok := rowEntropy(row); ok {
			sum += h
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// rowEntropy is the Shannon entropy (nats) of one attention row after
// renormalization — the same computation the span analyzer uses for its
// attention summaries.
func rowEntropy(row []float64) (float64, bool) {
	sum := 0.0
	for _, p := range row {
		if p > 0 {
			sum += p
		}
	}
	if sum <= 0 {
		return 0, false
	}
	h := 0.0
	for _, p := range row {
		if p > 0 {
			q := p / sum
			h -= q * math.Log(q)
		}
	}
	return h, true
}

// LeaderTTC computes the front-leader time-to-collision from a sensor
// view: among the n observed vehicles (veh(i) returns the i-th id and
// state), the leader is the nearest one ahead of the AV in its lane,
// ties broken by lowest id so map-ordered callers stay deterministic.
// Returns ok=false without a leader on a collision course. Any int is a
// valid id, negative ones included. Shared by the serving monitor (wire
// frames) and the profiled evaluation (sensor frames) so both sides
// measure the same quantity.
func LeaderTTC(av world.State, n int, veh func(i int) (int, world.State), vehicleLen float64) (float64, bool) {
	found, bestID := false, 0
	var best world.State
	for i := 0; i < n; i++ {
		id, st := veh(i)
		if st.Lat != av.Lat || st.Lon <= av.Lon {
			continue
		}
		if !found || st.Lon < best.Lon || (st.Lon == best.Lon && id < bestID) {
			found, bestID, best = true, id, st
		}
	}
	if !found {
		return 0, false
	}
	return world.TTC(av, best, vehicleLen)
}
