package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"head/internal/obs"
)

// ErrClosed is returned by Submit after Close has begun: the service is
// draining and accepts no new work.
var ErrClosed = errors.New("serve: batcher closed")

// BatcherConfig sizes the micro-batcher.
type BatcherConfig struct {
	// MaxBatch is B: the most queued requests a replica worker takes into
	// one batched forward (default 8).
	MaxBatch int
	// Deprecated: MaxWait is ignored. A free replica worker takes whatever
	// is queued at once, so no request waits for batch mates; the field
	// remains only so that callers which still set it compile.
	MaxWait time.Duration
	// Queue bounds the submit channel; once full, Submit blocks (applying
	// backpressure to clients) until a replica worker takes a batch or the
	// caller's context expires. Default 4×MaxBatch.
	Queue int
	// Replicas is how many worker goroutines (each owning one Decider)
	// take batches from the queue concurrently (default 1).
	Replicas int
	// Metrics receives the service counters and histograms (nil disables):
	// serve.requests / serve.errors counters, serve.queue_wait_s and
	// serve.decide_s latency histograms, and a serve.batch_size occupancy
	// histogram. Strictly out of band, like every obs sink.
	Metrics *obs.Registry
}

func (c BatcherConfig) withDefaults() BatcherConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.Queue <= 0 {
		c.Queue = 4 * c.MaxBatch
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	return c
}

// Result is one served decision plus the timestamps that attribute its
// latency: Enqueued (Submit accepted it), Flushed (a replica worker took
// its batch off the queue), InferStart (the worker began the batched
// forward), InferDone (the batched forward returned), Replied (the
// response was handed to the waiter), and the size of the batch it rode
// in. Consecutive differences are the request's queue / batch_seal /
// replica_infer phases; request telemetry records them as spans.
type Result struct {
	Decision   Decision
	Err        error
	Enqueued   time.Time
	Flushed    time.Time
	InferStart time.Time
	InferDone  time.Time
	Replied    time.Time
	BatchSize  int
}

// pending is one in-flight request: the observation, its enqueue
// timestamp, and the buffered response channel its waiter blocks on.
type pending struct {
	obs *Observation
	enq time.Time
	ch  chan Result
}

// Batcher is the work-conserving micro-batcher: Submit places requests on
// a bounded channel, and each replica worker blocks for the oldest queued
// request, takes whatever else is already queued (up to MaxBatch) without
// waiting, and answers the batch through one batched forward pass. No
// replica sits idle while a request waits; batches form only when
// requests pile up behind busy replicas. Shutdown is ordered: Drain (or
// Close) stops new admissions, waits for every in-flight request to
// receive its response, then joins the workers — no request is ever
// dropped without a reply.
type Batcher struct {
	cfg    BatcherConfig
	submit chan *pending

	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup
	nflight  atomic.Int64 // admitted Submits that have not returned
	workers  sync.WaitGroup
	drained  chan struct{} // closed once the ordered shutdown completes

	mRequests  *obs.Counter
	mErrors    *obs.Counter
	mQueueWait *obs.Histogram
	mDecide    *obs.Histogram
	mBatchSize *obs.Histogram
}

// NewBatcher starts cfg.Replicas workers, each owning one Decider from
// newReplica (called once per worker, so each worker gets private model
// state).
func NewBatcher(cfg BatcherConfig, newReplica func() Decider) *Batcher {
	cfg = cfg.withDefaults()
	b := &Batcher{
		cfg:     cfg,
		submit:  make(chan *pending, cfg.Queue),
		drained: make(chan struct{}),
	}
	if reg := cfg.Metrics; reg != nil {
		b.mRequests = reg.Counter("serve.requests")
		b.mErrors = reg.Counter("serve.errors")
		b.mQueueWait = reg.Histogram("serve.queue_wait_s")
		b.mDecide = reg.Histogram("serve.decide_s")
		b.mBatchSize = reg.Histogram("serve.batch_size", 1, 2, 4, 8, 16, 32, 64)
	}
	for i := 0; i < cfg.Replicas; i++ {
		b.workers.Add(1)
		go b.worker(newReplica())
	}
	return b
}

// Config reports the effective (default-filled) configuration.
func (b *Batcher) Config() BatcherConfig { return b.cfg }

// Submit enqueues one observation and blocks until its decision arrives,
// the context expires, or the batcher is closed. The observation must stay
// untouched until Submit returns (a replica reads it during the decide). The
// returned error equals Result.Err for replica failures, so callers can
// branch on the Result alone.
func (b *Batcher) Submit(ctx context.Context, o *Observation) (Result, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return Result{}, ErrClosed
	}
	b.inflight.Add(1)
	b.nflight.Add(1)
	b.mu.Unlock()
	defer func() {
		b.nflight.Add(-1)
		b.inflight.Done()
	}()

	p := &pending{obs: o, enq: time.Now(), ch: make(chan Result, 1)}
	select {
	case b.submit <- p:
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
	select {
	case r := <-p.ch:
		b.observe(r)
		return r, r.Err
	case <-ctx.Done():
		// The reply lands in the buffered channel later and is dropped
		// with the pending struct — no goroutine blocks on it.
		return Result{}, ctx.Err()
	}
}

// observe records one completed request into the metrics registry.
func (b *Batcher) observe(r Result) {
	if b.mRequests == nil {
		return
	}
	b.mRequests.Inc()
	if r.Err != nil {
		b.mErrors.Inc()
	}
	b.mQueueWait.Observe(r.Flushed.Sub(r.Enqueued).Seconds())
	b.mDecide.Observe(r.Replied.Sub(r.Flushed).Seconds())
	b.mBatchSize.Observe(float64(r.BatchSize))
}

// Drain stops the batcher in order: new Submits are refused at once,
// every already-admitted request runs to completion and receives its
// response, then the replica workers exit. It returns nil once that is
// done. If ctx ends first it returns an error that wraps ctx.Err() and
// counts the requests still in flight; the shutdown then goes on in the
// background, and a later Drain or Close waits for it again.
func (b *Batcher) Drain(ctx context.Context) error {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		go func() {
			// Every admitted Submit holds an inflight token until it
			// has its response; the workers are still running, so
			// waiting here is the drain.
			b.inflight.Wait()
			close(b.submit)
			b.workers.Wait()
			close(b.drained)
		}()
	}
	b.mu.Unlock()
	select {
	case <-b.drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain stopped with %d requests in flight: %w", b.nflight.Load(), ctx.Err())
	}
}

// Close is Drain without a time limit, so it returns only once the drain
// is complete. Idempotent.
func (b *Batcher) Close() { b.Drain(context.Background()) }

// worker answers batches with one Decider: block for the oldest queued
// request, take whatever else is queued up to MaxBatch without waiting,
// one batched decide, reply to every waiter (the whole batch shares an
// error when the decide fails or panics). It exits once Close has closed
// the queue and the queue is empty.
func (b *Batcher) worker(d Decider) {
	defer b.workers.Done()
	batch := make([]*pending, 0, b.cfg.MaxBatch)
	obsBuf := make([]*Observation, 0, b.cfg.MaxBatch)
	out := make([]Decision, b.cfg.MaxBatch)
	for p := range b.submit {
		batch = append(batch[:0], p)
	take:
		for len(batch) < b.cfg.MaxBatch {
			select {
			case q, ok := <-b.submit:
				if !ok {
					break take
				}
				batch = append(batch, q)
			default:
				break take
			}
		}
		flushed := time.Now()
		obsBuf = obsBuf[:0]
		for _, q := range batch {
			obsBuf = append(obsBuf, q.obs)
		}
		n := len(batch)
		inferStart := time.Now()
		err := safeDecide(d, obsBuf, out[:n])
		inferDone := time.Now()
		for i, q := range batch {
			r := Result{
				Err: err, Enqueued: q.enq, Flushed: flushed,
				InferStart: inferStart, InferDone: inferDone,
				Replied: time.Now(), BatchSize: n,
			}
			if err == nil {
				r.Decision = out[i]
			}
			q.ch <- r
		}
	}
}

// safeDecide shields the worker from a mid-flight replica failure: a
// panicking Decider turns into a batch-wide error instead of tearing the
// service down, and the worker keeps serving subsequent batches.
func safeDecide(d Decider, obs []*Observation, out []Decision) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: replica panic: %v", r)
		}
	}()
	return d.DecideBatch(obs, out)
}
