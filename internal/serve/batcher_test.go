package serve

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"head/internal/obs"
	"head/internal/world"
)

// echoDecider answers each observation with its first frame's AV.Lon as
// the acceleration — a routing watermark: a crossed wire between pending
// requests and responses shows up as a wrong Accel. Error and panic
// injection model mid-flight replica failures.
type echoDecider struct {
	delay      time.Duration
	errEvery   int64 // every Nth batch fails (0 disables)
	panicEvery int64 // every Nth batch panics (0 disables)

	calls    atomic.Int64
	maxBatch atomic.Int64
}

func (d *echoDecider) DecideBatch(obs []*Observation, out []Decision) error {
	n := d.calls.Add(1)
	for {
		m := d.maxBatch.Load()
		if int64(len(obs)) <= m || d.maxBatch.CompareAndSwap(m, int64(len(obs))) {
			break
		}
	}
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	if d.errEvery > 0 && n%d.errEvery == 0 {
		return errors.New("injected replica error")
	}
	if d.panicEvery > 0 && n%d.panicEvery == 0 {
		panic("injected replica panic")
	}
	for i, o := range obs {
		out[i] = Decision{
			Behavior:  int(world.LaneKeep),
			Accel:     o.Frames[0].AV.Lon,
			Attention: [][]float64{{0.5, 0.5}},
		}
	}
	return nil
}

// mark builds an observation watermarked with id.
func mark(id int) *Observation {
	return &Observation{Frames: []Frame{{AV: world.State{Lat: 1, Lon: float64(id)}}}}
}

// TestBatcherHammer is the -race stress test: many concurrent submitters
// racing several workers that each take whatever is queued, injected
// replica errors, and injected panics. Every submit must receive
// exactly one response, every successful response must carry its own
// watermark back, and no batch may exceed MaxBatch.
func TestBatcherHammer(t *testing.T) {
	d := &echoDecider{delay: 50 * time.Microsecond, errEvery: 7, panicEvery: 13}
	b := NewBatcher(BatcherConfig{
		MaxBatch: 4,
		Queue:    8,
		Replicas: 3,
		Metrics:  obs.NewRegistry(),
	}, func() Decider { return d })

	const goroutines, perG = 16, 50
	var ok, failed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := g*perG + i
				res, err := b.Submit(context.Background(), mark(id))
				switch {
				case err != nil:
					if res.Err == nil {
						t.Errorf("submit %d: error %v without Result.Err", id, err)
					}
					failed.Add(1)
				case res.Decision.Accel != float64(id):
					t.Errorf("submit %d: crossed wires, got watermark %v", id, res.Decision.Accel)
				case res.BatchSize < 1 || res.BatchSize > 4:
					t.Errorf("submit %d: batch size %d outside [1, 4]", id, res.BatchSize)
				case res.Flushed.Before(res.Enqueued) || res.Replied.Before(res.Flushed):
					t.Errorf("submit %d: timestamps out of order: %v %v %v", id, res.Enqueued, res.Flushed, res.Replied)
				default:
					ok.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	b.Close()

	if total := ok.Load() + failed.Load(); total != goroutines*perG {
		t.Fatalf("lost responses: %d of %d accounted for", total, goroutines*perG)
	}
	if failed.Load() == 0 {
		t.Error("error injection never fired — the failure path went untested")
	}
	if ok.Load() == 0 {
		t.Error("no successful responses")
	}
	if m := d.maxBatch.Load(); m > 4 {
		t.Errorf("a batch of %d exceeded MaxBatch 4", m)
	}
}

// gate holds replica calls until it opens, reporting each call's batch
// size on entered as the call begins. It lets a test queue requests
// behind replicas it knows are busy.
type gate struct {
	opened  chan struct{}
	once    sync.Once
	entered chan int
}

// newGate returns a gate that holds calls until open, with room to
// report the batch sizes of n calls.
func newGate(n int) *gate {
	return &gate{opened: make(chan struct{}), entered: make(chan int, n)}
}

// open lets every held and later call through. Idempotent, so a test can
// also defer it to free its replicas before Close when it fails early.
func (g *gate) open() { g.once.Do(func() { close(g.opened) }) }

// gatedDecider answers through the wrapped Decider once its gate opens.
type gatedDecider struct {
	Decider
	g *gate
}

func (d gatedDecider) DecideBatch(obs []*Observation, out []Decision) error {
	d.g.entered <- len(obs)
	<-d.g.opened
	return d.Decider.DecideBatch(obs, out)
}

// waitEntered receives the next batch size a gatedDecider reports.
func waitEntered(t *testing.T, entered <-chan int) int {
	t.Helper()
	select {
	case n := <-entered:
		return n
	case <-time.After(5 * time.Second):
		t.Fatal("no replica call began within 5s")
		return 0
	}
}

// waitQueued polls until n requests sit in the submit queue.
func waitQueued(t *testing.T, b *Batcher, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(b.submit) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests queued after 5s", len(b.submit), n)
		}
		runtime.Gosched()
	}
}

// TestIdleReplicaDecidesAtOnce: with a huge MaxBatch, a lone request must
// ride a batch of one at once instead of waiting for company that never
// comes. MaxWait is set to prove the deprecated field is ignored.
func TestIdleReplicaDecidesAtOnce(t *testing.T) {
	d := &echoDecider{}
	b := NewBatcher(BatcherConfig{MaxBatch: 64, MaxWait: 10 * time.Second}, func() Decider { return d })
	defer b.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	res, err := b.Submit(ctx, mark(1))
	if err != nil {
		t.Fatalf("lone request not answered within 1s: %v", err)
	}
	if res.BatchSize != 1 {
		t.Errorf("lone request rode batch of %d", res.BatchSize)
	}
	if res.Decision.Accel != 1 {
		t.Errorf("wrong watermark %v", res.Decision.Accel)
	}
}

// TestBusyReplicaCoalesces: requests that queue while the only replica is
// busy ride the next batches together, MaxBatch at a time, and every
// answer goes back to its own submitter.
func TestBusyReplicaCoalesces(t *testing.T) {
	const maxBatch = 4
	g := newGate(3)
	b := NewBatcher(BatcherConfig{MaxBatch: maxBatch}, func() Decider { return gatedDecider{&echoDecider{}, g} })
	defer b.Close()
	defer g.open()

	sizes := make(chan int, maxBatch+3)
	var wg sync.WaitGroup
	submit := func(id int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := b.Submit(context.Background(), mark(id))
			switch {
			case err != nil:
				t.Errorf("submit %d: %v", id, err)
			case res.Decision.Accel != float64(id):
				t.Errorf("submit %d: crossed wires, got watermark %v", id, res.Decision.Accel)
			default:
				sizes <- res.BatchSize
			}
		}()
	}
	submit(0)
	if n := waitEntered(t, g.entered); n != 1 {
		t.Fatalf("first batch held %d requests, want 1", n)
	}
	for id := 1; id <= maxBatch+2; id++ {
		submit(id)
	}
	waitQueued(t, b, maxBatch+2)
	g.open()
	for _, want := range []int{maxBatch, 2} {
		if n := waitEntered(t, g.entered); n != want {
			t.Errorf("batch held %d queued requests, want %d", n, want)
		}
	}
	wg.Wait()
	close(sizes)
	count := map[int]int{}
	for n := range sizes {
		count[n]++
	}
	if want := map[int]int{1: 1, maxBatch: maxBatch, 2: 2}; !maps.Equal(count, want) {
		t.Errorf("requests per batch size %v, want %v", count, want)
	}
}

// TestCloseDrains: Close must answer every already-admitted request before
// shutting down, and refuse everything after.
func TestCloseDrains(t *testing.T) {
	d := &echoDecider{delay: 2 * time.Millisecond}
	b := NewBatcher(BatcherConfig{MaxBatch: 4, Queue: 4, Replicas: 2},
		func() Decider { return d })

	const n = 32
	var answered, refused atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := b.Submit(context.Background(), mark(i))
			switch {
			case errors.Is(err, ErrClosed):
				refused.Add(1)
			case err != nil:
				t.Errorf("submit %d: %v", i, err)
			case res.Decision.Accel != float64(i):
				t.Errorf("submit %d: wrong watermark %v", i, res.Decision.Accel)
			default:
				answered.Add(1)
			}
		}(i)
	}
	time.Sleep(3 * time.Millisecond) // let some submits get in flight
	b.Close()
	wg.Wait()

	if got := answered.Load() + refused.Load(); got != n {
		t.Fatalf("lost responses across shutdown: %d of %d accounted for", got, n)
	}
	if answered.Load() == 0 {
		t.Error("Close answered nothing — the drain path went untested")
	}
	// After Close, the batcher must refuse immediately and Close must be
	// idempotent.
	if _, err := b.Submit(context.Background(), mark(99)); !errors.Is(err, ErrClosed) {
		t.Errorf("post-Close submit: %v, want ErrClosed", err)
	}
	b.Close()
}

// TestDrainDeadline: a Decider that never returns must not hold Drain
// past its context, and Close must still finish once the Decider does.
func TestDrainDeadline(t *testing.T) {
	g := newGate(1)
	b := NewBatcher(BatcherConfig{MaxBatch: 4}, func() Decider { return gatedDecider{&echoDecider{}, g} })
	defer g.open()

	answered := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), mark(1))
		answered <- err
	}()
	waitEntered(t, g.entered)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := b.Drain(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with a held replica returned %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Drain took %v past a 50ms deadline", d)
	}
	if !strings.Contains(err.Error(), "1 requests in flight") {
		t.Errorf("Drain error %q does not count the one request in flight", err)
	}
	if _, err := b.Submit(context.Background(), mark(2)); !errors.Is(err, ErrClosed) {
		t.Errorf("submit during the drain: %v, want ErrClosed", err)
	}

	g.open()
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return within 5s of the replica finishing")
	}
	if err := <-answered; err != nil {
		t.Errorf("the held request got %v, want its decision", err)
	}
}

// TestSubmitContextCancel: a caller's deadline frees it even while its
// request is stuck behind a slow replica.
func TestSubmitContextCancel(t *testing.T) {
	d := &echoDecider{delay: 200 * time.Millisecond}
	b := NewBatcher(BatcherConfig{MaxBatch: 1}, func() Decider { return d })
	defer b.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := b.Submit(ctx, mark(1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("got %v, want context.DeadlineExceeded", err)
	}
}

// TestBatchErrorShared: a failing replica fails the whole batch,
// and the error reaches both the Result and the metrics registry.
func TestBatchErrorShared(t *testing.T) {
	reg := obs.NewRegistry()
	d := &echoDecider{errEvery: 1}
	b := NewBatcher(BatcherConfig{MaxBatch: 2, Metrics: reg}, func() Decider { return d })
	defer b.Close()

	res, err := b.Submit(context.Background(), mark(1))
	if err == nil || res.Err == nil {
		t.Fatalf("got err=%v res.Err=%v, want injected error in both", err, res.Err)
	}
	if got := reg.Counter("serve.errors").Value(); got != 1 {
		t.Errorf("serve.errors = %d, want 1", got)
	}
	if got := reg.Counter("serve.requests").Value(); got != 1 {
		t.Errorf("serve.requests = %d, want 1", got)
	}
}

// TestConfigDefaults: the zero config fills in sane sizes.
func TestConfigDefaults(t *testing.T) {
	b := NewBatcher(BatcherConfig{}, func() Decider { return &echoDecider{} })
	defer b.Close()
	cfg := b.Config()
	if cfg.MaxBatch <= 0 || cfg.Queue <= 0 || cfg.Replicas <= 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if cfg.Queue < cfg.MaxBatch {
		t.Errorf("queue %d smaller than one batch %d", cfg.Queue, cfg.MaxBatch)
	}
}

// TestValidate covers the request-shape gate.
func TestValidate(t *testing.T) {
	o := mark(1)
	if err := o.Validate(1); err != nil {
		t.Errorf("valid observation rejected: %v", err)
	}
	if err := o.Validate(5); err == nil {
		t.Error("frame-count mismatch accepted")
	}
	crowded := &Observation{Frames: []Frame{{Vehicles: make([]Vehicle, MaxVehiclesPerFrame+1)}}}
	if err := crowded.Validate(1); err == nil {
		t.Error("over-crowded frame accepted")
	}
	for name, f := range map[string]Frame{
		"NaN AV lon":       {AV: world.State{Lon: math.NaN()}},
		"+Inf AV speed":    {AV: world.State{V: math.Inf(1)}},
		"-Inf vehicle lon": {Vehicles: []Vehicle{{ID: 3, State: world.State{Lon: math.Inf(-1)}}}},
		"NaN vehicle V":    {Vehicles: []Vehicle{{ID: 3, State: world.State{V: math.NaN()}}}},
		"duplicate id":     {Vehicles: []Vehicle{{ID: 3}, {ID: 4}, {ID: 3}}},
	} {
		if err := (&Observation{Frames: []Frame{f}}).Validate(1); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if s := fmt.Sprint(Decision{Behavior: 2, BehaviorName: "lk"}.Maneuver()); s == "" {
		t.Error("empty maneuver string")
	}
}
