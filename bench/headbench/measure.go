package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"head/internal/nn"
)

// percentile is the exact nearest-rank p-th percentile (0 < p <= 100) of a
// sorted sample: the smallest value with at least p% of the sample at or
// below it. It interpolates nothing, so every reported value was measured.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p * float64(n) / 100))
	rank = min(max(rank, 1), n)
	return sorted[rank-1]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the nearest-rank median of an unsorted sample.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// heapSampler tracks the peak live heap (the bytes the last garbage
// collection found reachable) between start and stop, sampled every 10 ms
// through runtime/metrics, which does not stop the world. The live heap is
// what the program holds; the in-use heap also counts garbage awaiting
// the next collection, whose timing varies from run to run.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []metrics.Sample
	peak    uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		samples: []metrics.Sample{{Name: "/gc/heap/live:bytes"}},
	}
	h.sample()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	metrics.Read(h.samples)
	h.peak = max(h.peak, h.samples[0].Value.Uint64())
}

// stopMB ends sampling (after one last sample) and returns the peak in MB.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	<-h.done
	h.sample()
	return float64(h.peak) / (1 << 20)
}

// allocCounter reports the bytes allocated and GC cycles completed since
// it was taken.
type allocCounter struct{ bytes, gcs uint64 }

func takeAllocCounter() allocCounter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocCounter{m.TotalAlloc, uint64(m.NumGC)}
}

func (a allocCounter) since() (bytes, gcs uint64) {
	b := takeAllocCounter()
	return b.bytes - a.bytes, b.gcs - a.gcs
}

// latencies is a goroutine-safe sample of operation latencies in ms.
type latencies struct {
	mu sync.Mutex
	ms []float64
}

func (l *latencies) add(x float64) {
	l.mu.Lock()
	l.ms = append(l.ms, x)
	l.mu.Unlock()
}

// digest accumulates an output fingerprint: every float goes in by its
// bits, so two outputs digest equal only when they are bit-identical.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) ints(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.h.Write(b[:])
	}
}

func (d *digest) floats(vs ...float64) {
	for _, v := range vs {
		d.ints(int64(math.Float64bits(v)))
	}
}

// module adds every parameter value of m.
func (d *digest) module(m nn.Module) {
	for _, p := range m.Params() {
		d.h.Write([]byte(p.Name))
		d.floats(p.W.Data...)
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
