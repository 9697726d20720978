package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
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
// racing size flushes, deadline flushes, injected replica errors, and
// injected panics across several workers. Every submit must receive
// exactly one response, every successful response must carry its own
// watermark back, and no batch may exceed MaxBatch.
func TestBatcherHammer(t *testing.T) {
	d := &echoDecider{delay: 50 * time.Microsecond, errEvery: 7, panicEvery: 13}
	b := NewBatcher(BatcherConfig{
		MaxBatch: 4,
		MaxWait:  200 * time.Microsecond,
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

// TestDeadlineFlush: with a huge MaxBatch, a lone request must be flushed
// by the MaxWait deadline, not wait for company that never comes.
func TestDeadlineFlush(t *testing.T) {
	d := &echoDecider{}
	b := NewBatcher(BatcherConfig{MaxBatch: 64, MaxWait: 5 * time.Millisecond}, func() Decider { return d })
	defer b.Close()

	start := time.Now()
	res, err := b.Submit(context.Background(), mark(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchSize != 1 {
		t.Errorf("lone request rode batch of %d", res.BatchSize)
	}
	if wait := res.Flushed.Sub(res.Enqueued); wait < 4*time.Millisecond {
		t.Errorf("flushed after %v, before the 5ms deadline", wait)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("deadline flush took %v", elapsed)
	}
}

// TestSizeFlush: MaxBatch requests arriving together must flush on size,
// long before a distant deadline.
func TestSizeFlush(t *testing.T) {
	d := &echoDecider{}
	b := NewBatcher(BatcherConfig{MaxBatch: 2, MaxWait: 10 * time.Second}, func() Decider { return d })
	defer b.Close()

	var wg sync.WaitGroup
	sizes := make([]int, 2)
	for i := range sizes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := b.Submit(context.Background(), mark(i))
			if err != nil {
				t.Error(err)
				return
			}
			sizes[i] = res.BatchSize
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("size flush never fired; requests waited on the 10s deadline")
	}
	for i, s := range sizes {
		if s != 2 {
			t.Errorf("request %d rode batch of %d, want 2", i, s)
		}
	}
}

// TestCloseDrains: Close must answer every already-admitted request before
// shutting down, and refuse everything after.
func TestCloseDrains(t *testing.T) {
	d := &echoDecider{delay: 2 * time.Millisecond}
	b := NewBatcher(BatcherConfig{MaxBatch: 4, MaxWait: 500 * time.Microsecond, Queue: 4, Replicas: 2},
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

// TestSubmitContextCancel: a caller's deadline frees it even while its
// request is stuck behind a slow replica.
func TestSubmitContextCancel(t *testing.T) {
	d := &echoDecider{delay: 200 * time.Millisecond}
	b := NewBatcher(BatcherConfig{MaxBatch: 1, MaxWait: time.Millisecond}, func() Decider { return d })
	defer b.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := b.Submit(ctx, mark(1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("got %v, want context.DeadlineExceeded", err)
	}
}

// TestBatchErrorShared: a failing replica fails the whole flushed batch,
// and the error reaches both the Result and the metrics registry.
func TestBatchErrorShared(t *testing.T) {
	reg := obs.NewRegistry()
	d := &echoDecider{errEvery: 1}
	b := NewBatcher(BatcherConfig{MaxBatch: 2, MaxWait: time.Millisecond, Metrics: reg}, func() Decider { return d })
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
	if cfg.MaxBatch <= 0 || cfg.MaxWait <= 0 || cfg.Queue <= 0 || cfg.Replicas <= 0 {
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
