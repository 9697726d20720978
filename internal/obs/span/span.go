// Package span is the repository's flight recorder: a low-overhead
// hierarchical span tracer answering *where time goes* and *why the agent
// chose a maneuver* — the two questions the metric registry of
// internal/obs (how much, how often) cannot.
//
// A Tracer owns a fixed-size ring buffer of completed spans and an
// optional JSON Lines stream of per-step decision records. Instrumented
// code opens spans on a Lane — one logical track per training run,
// evaluation episode, or other parallel unit — nested run → episode →
// step → phase (sensor scan, phantom construction, LST-GAT inference,
// BP-DQN forward, reward computation, env physics, replay sampling,
// minibatch update). Step spans are sampled by a deterministic hash of
// (lane, episode, step) at a configurable rate; a skipped step mutes its
// phase spans and decision record for near-zero cost.
//
// Like the metric layer, tracing is strictly out of band: no recorded
// value feeds back into any computation, sampling draws no randomness
// from the experiment streams, and a nil *Tracer or *Lane disables
// everything, so instrumented call sites need no guards. Checkpoints and
// table outputs are bit-identical with tracing on, off, or sampled —
// gated by the experiment suite's determinism tests.
package span

import (
	"io"
	"sync"
	"time"
)

// Span is one completed timed region.
type Span struct {
	Name   string
	Parent string // name of the enclosing span ("" for a root span)
	Req    string // request id for request-scoped spans ("" elsewhere)
	Lane   int64  // owning lane id (the Chrome trace tid)
	Start  int64  // ns since the tracer epoch
	Dur    int64  // ns
	Child  int64  // ns covered by direct child spans (self time = Dur−Child)
	Ep     int32  // episode index, -1 outside an episode
	Step   int32  // step index, -1 outside a step
}

// Config parameterizes a Tracer. The zero value is usable: full sampling,
// default capacity, no decision sink.
type Config struct {
	// Capacity bounds the span ring buffer; once full, new spans overwrite
	// the oldest. 0 means DefaultCapacity.
	Capacity int
	// Sample is the fraction of steps traced, in [0, 1]; 0 as well as any
	// value ≥ 1 means every step. The decision is a deterministic hash of
	// (lane, episode, step), so the same run always samples the same steps
	// and no experiment random stream is consumed.
	Sample float64
	// Decisions receives one JSON line per sampled decision step (nil
	// discards them). The tracer serializes writes; the caller owns any
	// buffering and closing.
	Decisions io.Writer
}

// DefaultCapacity is the span ring size when Config.Capacity is 0: enough
// for every phase of ~6k steps.
const DefaultCapacity = 1 << 16

// Tracer is the shared sink completed spans and decision records flow
// into. All methods are safe on a nil receiver (tracing disabled) and for
// concurrent use.
type Tracer struct {
	epoch     time.Time
	sample    float64
	sampleAll bool

	mu    sync.Mutex
	spans []Span // ring of len ≤ capacity
	next  int
	full  bool
	total int64 // spans recorded since New (including overwritten ones)

	laneMu sync.Mutex
	lanes  []laneInfo
	nextID int64

	dec      decisionSink
	flushMu  sync.Mutex
	flushers []func() error
}

type laneInfo struct {
	ID   int64
	Name string
}

// New returns a tracer with the given configuration. The tracer epoch —
// timestamp zero of every span — is the moment of this call, which also
// opens the conceptual run span exported by WriteChrome.
func New(cfg Config) *Tracer {
	cap := cfg.Capacity
	if cap <= 0 {
		cap = DefaultCapacity
	}
	t := &Tracer{
		epoch:     time.Now(),
		sample:    cfg.Sample,
		sampleAll: cfg.Sample <= 0 || cfg.Sample >= 1,
		spans:     make([]Span, 0, cap),
	}
	t.dec.init(cfg.Decisions)
	return t
}

// now returns nanoseconds since the tracer epoch.
func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// Epoch returns the tracer's time zero: every span's Start is nanoseconds
// after this instant. Callers timing regions with their own clocks (see
// Record) convert through it.
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// Since converts an absolute timestamp to span time (ns since the
// epoch) — the Start value Record expects.
func (t *Tracer) Since(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(at.Sub(t.epoch))
}

// Record appends one externally-timed completed span to the ring. It is
// the entry point for lifecycles that cannot ride a Lane's stack — a
// served request crosses the HTTP handler and a batcher replica worker,
// so its phases are timed with plain timestamps and recorded post-hoc by
// whichever goroutine saw the reply. Safe for
// concurrent use; a nil tracer discards.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	t.record(s)
}

// Lane opens a new lane (a Chrome trace thread track) with the given
// display name. Every call returns a fresh lane, so concurrent units may
// reuse a name without sharing state; a Lane itself must only ever be
// driven from one goroutine at a time. A nil tracer returns a nil lane,
// on which every operation is a no-op.
func (t *Tracer) Lane(name string) *Lane {
	if t == nil {
		return nil
	}
	t.laneMu.Lock()
	t.nextID++ // id 0 is reserved for the run span
	id := t.nextID
	t.lanes = append(t.lanes, laneInfo{ID: id, Name: name})
	t.laneMu.Unlock()
	return &Lane{t: t, id: id, name: name, ep: -1, step: -1}
}

// record appends one completed span to the ring.
func (t *Tracer) record(s Span) {
	t.mu.Lock()
	t.total++
	if t.full {
		t.spans[t.next] = s
		t.next++
		if t.next == cap(t.spans) {
			t.next = 0
		}
	} else {
		t.spans = append(t.spans, s)
		if len(t.spans) == cap(t.spans) {
			t.full = true
			t.next = 0
		}
	}
	t.mu.Unlock()
}

// Snapshot returns the retained spans in recording order (oldest first)
// plus the total number ever recorded (≥ len of the returned slice; the
// difference was overwritten by ring wrap-around).
func (t *Tracer) Snapshot() ([]Span, int64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	if t.full {
		out = append(out, t.spans[t.next:]...)
		out = append(out, t.spans[:t.next]...)
	} else {
		out = append(out, t.spans...)
	}
	return out, t.total
}

// keep is the deterministic sampling decision for one step.
func (t *Tracer) keep(lane int64, ep, step int32) bool {
	if t.sampleAll {
		return true
	}
	// SplitMix64-style finalizer over the step coordinates; the top 53
	// bits become a uniform float in [0, 1).
	z := uint64(lane)*0x9e3779b97f4a7c15 ^ uint64(uint32(ep))<<21 ^ uint64(uint32(step))
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)/(1<<53) < t.sample
}

// OnFlush registers a finalizer run by Flush (e.g. closing the decision
// stream's file). Safe on a nil tracer.
func (t *Tracer) OnFlush(fn func() error) {
	if t == nil || fn == nil {
		return
	}
	t.flushMu.Lock()
	t.flushers = append(t.flushers, fn)
	t.flushMu.Unlock()
}

// Flush runs the registered finalizers (in registration order) and
// returns the first error. Safe on a nil tracer.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.flushMu.Lock()
	fns := t.flushers
	t.flushers = nil
	t.flushMu.Unlock()
	var first error
	for _, fn := range fns {
		if err := fn(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Traceable is implemented by environments and agents that can attach a
// lane for phase spans and decision records; instrumented loops
// type-assert and wire the lane through.
type Traceable interface{ SetTrace(*Lane) }

// Lane is one logical track of hierarchical spans. It is owned by a
// single goroutine; all methods are safe on a nil receiver.
type Lane struct {
	t    *Tracer
	id   int64
	name string

	stack []frame
	muted int   // >0 while inside an unsampled step
	ep    int32 // current episode index (-1 outside)
	step  int32 // current step index (-1 outside)
}

type frame struct {
	name  string
	start int64
	child int64
	ep    int32
	step  int32
}

// Name returns the lane's display name ("" for a nil lane).
func (l *Lane) Name() string {
	if l == nil {
		return ""
	}
	return l.name
}

// ID returns the lane's tracer-unique id (the Chrome trace tid), 0 for a
// nil lane. Request telemetry allocates lanes only for their named track
// ids and records spans onto them via Tracer.Record.
func (l *Lane) ID() int64 {
	if l == nil {
		return 0
	}
	return l.id
}

// Region is an open span returned by the Start family; call End exactly
// once. The zero value (from a nil lane or a muted step) is a no-op.
type Region struct {
	l         *Lane
	live      bool // a frame was pushed and must be popped
	mute      bool // End decrements the mute counter instead
	clearEp   bool
	clearStep bool
}

// push opens a frame on the lane stack.
func (l *Lane) push(name string) {
	l.stack = append(l.stack, frame{name: name, start: l.t.now(), ep: l.ep, step: l.step})
}

// Start opens a phase span nested under the innermost open span. Inside
// an unsampled step it records nothing.
func (l *Lane) Start(name string) Region {
	if l == nil || l.muted > 0 {
		return Region{}
	}
	l.push(name)
	return Region{l: l, live: true}
}

// StartEpisode opens an episode span and sets the lane's episode
// coordinate for everything nested inside. Episode spans are always
// recorded; sampling applies at step granularity only.
func (l *Lane) StartEpisode(ep int) Region {
	if l == nil || l.muted > 0 {
		return Region{}
	}
	l.ep = int32(ep)
	l.push("episode")
	return Region{l: l, live: true, clearEp: true}
}

// StartStep opens a step span, applying the tracer's sampling decision:
// an unsampled step mutes the lane until the region ends, so its phase
// spans and decision record cost a counter check each.
func (l *Lane) StartStep(step int) Region {
	if l == nil {
		return Region{}
	}
	if l.muted > 0 || !l.t.keep(l.id, l.ep, int32(step)) {
		l.muted++
		return Region{l: l, mute: true}
	}
	l.step = int32(step)
	l.push("step")
	return Region{l: l, live: true, clearStep: true}
}

// Sampled reports whether the lane is currently inside a recorded
// (sampled) step — the gate for emitting a decision record.
func (l *Lane) Sampled() bool {
	return l != nil && l.muted == 0 && l.step >= 0
}

// End closes the region: the completed span goes to the tracer ring and
// its duration is added to the parent frame's child time.
func (r Region) End() {
	l := r.l
	if l == nil {
		return
	}
	if r.mute {
		if l.muted > 0 {
			l.muted--
		}
		return
	}
	if !r.live || len(l.stack) == 0 {
		return
	}
	f := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	dur := l.t.now() - f.start
	parent := ""
	if n := len(l.stack); n > 0 {
		l.stack[n-1].child += dur
		parent = l.stack[n-1].name
	}
	if r.clearEp {
		l.ep = -1
	}
	if r.clearStep {
		l.step = -1
	}
	l.t.record(Span{
		Name: f.name, Parent: parent, Lane: l.id,
		Start: f.start, Dur: dur, Child: f.child,
		Ep: f.ep, Step: f.step,
	})
}
