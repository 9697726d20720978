package predict

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"time"

	"head/internal/ngsim"
	"head/internal/nn"
	"head/internal/obs"
	"head/internal/obs/span"
	"head/internal/parallel"
)

// TrainConfig controls predictor training.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	// ConvergeTol stops training early when the relative epoch-loss
	// improvement drops below this tolerance (0 disables early stopping).
	ConvergeTol float64
	// Workers bounds the data-parallel fan-out for models implementing
	// DataParallel (0 means all cores). The trained weights are
	// bit-identical for every worker count, including 1: gradients are
	// always computed per GradChunk-sample chunk and reduced in chunk
	// order, so the worker count changes wall-clock time only.
	Workers int

	// Out-of-band observability; all nil-safe and zero by default.
	// Metrics receives predict.* gauges/counters plus the
	// predict.grad_chunk timing histogram; Progress a per-epoch heartbeat;
	// EpochSink a callback per completed epoch. None of them feed back
	// into training: the trained weights are identical with or without.
	Metrics   *obs.Registry
	Progress  *obs.Progress
	EpochSink func(epoch int, loss float64)
	// Trace records per-epoch and per-minibatch spans onto a lane (the
	// master training goroutine only; gradient chunks run on pool workers
	// and stay untraced). Nil disables.
	Trace *span.Lane
}

// observeEpoch fans one completed epoch out to the configured sinks.
func (cfg TrainConfig) observeEpoch(epoch int, loss float64) {
	if cfg.Metrics != nil {
		cfg.Metrics.Counter("predict.epochs").Inc()
		cfg.Metrics.Gauge("predict.epoch_loss").Set(loss)
	}
	cfg.Progress.Heartbeat("predict: epoch %d/%d  loss %.5f", epoch+1, cfg.Epochs, loss)
	if cfg.EpochSink != nil {
		cfg.EpochSink(epoch, loss)
	}
}

// DefaultTrainConfig mirrors the paper's 15 epochs with batch size 64.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 15, BatchSize: 64, ConvergeTol: 0}
}

// TrainResult reports a training run.
type TrainResult struct {
	EpochLosses []float64
	// TCT is the training convergence time (wall clock), the efficiency
	// metric of Table IV.
	TCT time.Duration
}

// DataParallel is implemented by models whose mini-batch step splits into
// gradient accumulation and optimizer application, which is what lets
// Train spread a batch over worker replicas and reduce the gradient sums
// before each optimizer step.
type DataParallel interface {
	Model
	nn.Module
	// Replica returns an independent model with identical architecture
	// and parameter values, safe to drive from another goroutine.
	Replica() DataParallel
	// GradBatch zeroes the gradients, accumulates fresh ones over the
	// batch without applying them, and returns the summed sample loss.
	GradBatch(batch []*ngsim.Sample) float64
	// ApplyGrads clips and applies the accumulated gradients (one
	// optimizer step).
	ApplyGrads()
}

// GradChunk is the fixed data-parallel grain: every batch is cut into
// GradChunk-sample chunks whose gradients are computed independently (each
// from zeroed buffers) and added into the master model in chunk order. The
// chunk structure is a property of the batch, not of the worker count, so
// the floating-point reduction tree — and therefore the trained weights —
// are identical whether one worker or sixteen execute the chunks.
const GradChunk = 8

// Train optimizes the model on ds, shuffling each epoch with rng. Models
// implementing DataParallel train data-parallel under cfg.Workers; other
// models fall back to their serial TrainBatch.
func Train(model Model, ds *ngsim.Dataset, cfg TrainConfig, rng *rand.Rand) TrainResult {
	if dp, ok := model.(DataParallel); ok {
		return trainParallel(dp, ds, cfg, rng)
	}
	start := time.Now()
	var res TrainResult
	prev := math.Inf(1)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		er := cfg.Trace.StartEpisode(epoch)
		ds.Shuffle(rng)
		total, batches := 0.0, 0
		for off := 0; off < ds.Len(); off += cfg.BatchSize {
			end := off + cfg.BatchSize
			if end > ds.Len() {
				end = ds.Len()
			}
			mb := cfg.Trace.Start("minibatch_update")
			total += model.TrainBatch(ds.Samples[off:end])
			mb.End()
			batches++
		}
		er.End()
		if batches == 0 {
			break
		}
		loss := total / float64(batches)
		res.EpochLosses = append(res.EpochLosses, loss)
		cfg.observeEpoch(epoch, loss)
		if cfg.ConvergeTol > 0 && prev-loss < cfg.ConvergeTol*math.Abs(prev) {
			break
		}
		prev = loss
	}
	res.TCT = time.Since(start)
	return res
}

// trainParallel is the data-parallel trainer: each batch's chunks are
// fanned out to worker-owned replicas, each chunk adds its replica's
// gradients into the master model in chunk order, and one optimizer step
// is applied on the master before the replicas resynchronize.
func trainParallel(model DataParallel, ds *ngsim.Dataset, cfg TrainConfig, rng *rand.Rand) TrainResult {
	start := time.Now()
	workers := parallel.Workers(cfg.Workers)
	if max := (cfg.BatchSize + GradChunk - 1) / GradChunk; workers > max && max > 0 {
		workers = max
	}
	// The replica pool: workers own a replica for the duration of one
	// chunk; which replica computes which chunk does not matter because
	// replicas are kept bit-identical to the master.
	pool := make(chan DataParallel, workers)
	for i := 0; i < workers; i++ {
		pool <- model.Replica()
	}
	// Chunk c of every batch writes its loss into slot c, so the buffer is
	// allocated once per Train call.
	maxChunks := (cfg.BatchSize + GradChunk - 1) / GradChunk
	losses := make([]float64, maxChunks)
	// The reduction: chunk c adds its gradients into the master after
	// chunk c−1 has (next counts the chunks added), so the master holds
	// the same chunk-ordered sum for any worker count.
	var (
		mu   sync.Mutex
		turn = sync.NewCond(&mu)
		next int
	)
	var res TrainResult
	prev := math.Inf(1)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		er := cfg.Trace.StartEpisode(epoch)
		ds.Shuffle(rng)
		total, batches := 0.0, 0
		for off := 0; off < ds.Len(); off += cfg.BatchSize {
			end := off + cfg.BatchSize
			if end > ds.Len() {
				end = ds.Len()
			}
			batch := ds.Samples[off:end]
			chunks := (len(batch) + GradChunk - 1) / GradChunk
			mb := cfg.Trace.Start("minibatch_update")
			gf := cfg.Trace.Start("grad_fanout")
			nn.ZeroGrads(model)
			next = 0
			// The chunk function never fails and the context never ends,
			// so ForEach cannot return an error.
			_ = parallel.ForEach(context.Background(), chunks, workers, func(c int) error {
				lo := c * GradChunk
				hi := lo + GradChunk
				if hi > len(batch) {
					hi = len(batch)
				}
				r := <-pool
				defer func() { pool <- r }()
				if cfg.Metrics != nil {
					defer cfg.Metrics.Timer("predict.grad_chunk")()
				}
				losses[c] = r.GradBatch(batch[lo:hi])
				// ForEach hands out chunk c−1 before chunk c, and its
				// worker adds it before taking another, so this wait ends.
				mu.Lock()
				for next != c {
					turn.Wait()
				}
				addGrads(model, r)
				next++
				turn.Broadcast()
				mu.Unlock()
				return nil
			})
			gf.End()
			batchLoss := 0.0
			for c := 0; c < chunks; c++ {
				batchLoss += losses[c]
			}
			model.ApplyGrads()
			total += batchLoss / float64(len(batch))
			batches++
			// Resynchronize the replicas with the stepped master.
			for i := 0; i < workers; i++ {
				r := <-pool
				nn.CopyParams(r, model)
				pool <- r
			}
			mb.End()
		}
		er.End()
		if batches == 0 {
			break
		}
		loss := total / float64(batches)
		res.EpochLosses = append(res.EpochLosses, loss)
		cfg.observeEpoch(epoch, loss)
		if cfg.ConvergeTol > 0 && prev-loss < cfg.ConvergeTol*math.Abs(prev) {
			break
		}
		prev = loss
	}
	res.TCT = time.Since(start)
	return res
}

// addGrads adds src's accumulated gradients into dst's, parameter by
// parameter; the two modules have identical shapes.
func addGrads(dst, src nn.Module) {
	dp := dst.Params()
	for i, p := range src.Params() {
		d := dp[i].Grad.Data
		for j, v := range p.Grad.Data {
			d[j] += v
		}
	}
}

// AvgInferenceTime measures the mean wall-clock time of one full Predict
// call (all six targets) over the dataset — the AvgIT metric of Table IV.
func AvgInferenceTime(model Model, ds *ngsim.Dataset) time.Duration {
	if ds.Len() == 0 {
		return 0
	}
	start := time.Now()
	for _, s := range ds.Samples {
		model.Predict(s.Graph)
	}
	return time.Since(start) / time.Duration(ds.Len())
}
