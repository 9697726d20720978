package rl

import (
	"fmt"
	"math"
	"math/rand"
)

// OUNoise is an Ornstein–Uhlenbeck process, the temporally correlated
// exploration noise of the original DDPG; it produces smoother
// acceleration exploration than independent Gaussian draws, which matters
// for the comfort (jerk) reward term.
type OUNoise struct {
	Theta, Sigma, Mu float64
	state            []float64
	rng              *rand.Rand
}

// NewOUNoise returns an n-dimensional OU process with mean-reversion rate
// theta and volatility sigma around mean 0.
func NewOUNoise(n int, theta, sigma float64, rng *rand.Rand) *OUNoise {
	return &OUNoise{Theta: theta, Sigma: sigma, state: make([]float64, n), rng: rng}
}

// Sample advances the process one step and returns the current noise
// vector (shared backing array; copy if retained).
func (o *OUNoise) Sample() []float64 {
	for i, x := range o.state {
		o.state[i] = x + o.Theta*(o.Mu-x) + o.Sigma*o.rng.NormFloat64()
	}
	return o.state
}

// Reset zeroes the process state (between episodes).
func (o *OUNoise) Reset() {
	for i := range o.state {
		o.state[i] = 0
	}
}

// PrioritizedReplay is a proportional prioritized experience replay buffer
// (Schaul et al.): transitions are sampled with probability proportional
// to |TD error|^α, and importance-sampling weights correct the induced
// bias. A sum-tree gives O(log n) updates and samples.
type PrioritizedReplay struct {
	capacity int
	alpha    float64
	tree     []float64    // binary sum tree over 2*capacity-1 nodes
	data     []Transition // grows as the ring fills, up to capacity
	size     int
	next     int
	maxPrio  float64
}

// NewPrioritizedReplay returns a buffer with the given capacity and
// prioritization exponent alpha (0 = uniform, 1 = fully proportional).
func NewPrioritizedReplay(capacity int, alpha float64) *PrioritizedReplay {
	if capacity <= 0 {
		panic(fmt.Sprintf("rl: prioritized replay capacity must be positive, got %d", capacity))
	}
	return &PrioritizedReplay{
		capacity: capacity,
		alpha:    alpha,
		tree:     make([]float64, 2*capacity-1),
		maxPrio:  1,
	}
}

// Len returns the number of stored transitions.
func (p *PrioritizedReplay) Len() int { return p.size }

// Push deep-copies a transition into the ring with the maximum priority
// seen so far (so every transition is replayed at least once soon after
// arrival). Callers may reuse tr's backing slices immediately.
func (p *PrioritizedReplay) Push(tr Transition) {
	idx := p.next
	if idx == len(p.data) {
		p.data = append(p.data, Transition{})
	}
	copyTransition(&p.data[idx], tr)
	p.setPriority(idx, p.maxPrio)
	p.next = (p.next + 1) % p.capacity
	if p.size < p.capacity {
		p.size++
	}
}

// setPriority writes prio^alpha at leaf idx and propagates the sum.
func (p *PrioritizedReplay) setPriority(idx int, prio float64) {
	node := idx + p.capacity - 1
	value := math.Pow(prio, p.alpha)
	delta := value - p.tree[node]
	for {
		p.tree[node] += delta
		if node == 0 {
			break
		}
		node = (node - 1) / 2
	}
}

// total returns the sum of all priorities.
func (p *PrioritizedReplay) total() float64 { return p.tree[0] }

// Sample draws n transitions proportionally to priority. It returns the
// transitions, their buffer indices (for UpdatePriorities), and their
// importance-sampling weights normalized to max 1, computed with exponent
// beta. The transitions alias ring-slot storage, valid until the next Push.
func (p *PrioritizedReplay) Sample(n int, beta float64, rng *rand.Rand) ([]Transition, []int, []float64) {
	return p.SampleInto(nil, nil, nil, n, beta, rng)
}

// SampleInto is Sample writing into the provided slices (grown as needed),
// so steady-state training samples without allocating.
func (p *PrioritizedReplay) SampleInto(trs []Transition, idxs []int, weights []float64,
	n int, beta float64, rng *rand.Rand) ([]Transition, []int, []float64) {
	if cap(trs) < n {
		trs = make([]Transition, n)
	} else {
		trs = trs[:n]
	}
	if cap(idxs) < n {
		idxs = make([]int, n)
	} else {
		idxs = idxs[:n]
	}
	if cap(weights) < n {
		weights = make([]float64, n)
	} else {
		weights = weights[:n]
	}
	total := p.total()
	if total <= 0 || p.size == 0 {
		for i := range trs {
			trs[i], idxs[i], weights[i] = Transition{}, 0, 0
		}
		return trs, idxs, weights
	}
	maxW := 0.0
	for i := 0; i < n; i++ {
		target := rng.Float64() * total
		node := 0
		for node < p.capacity-1 {
			left := 2*node + 1
			if target <= p.tree[left] {
				node = left
			} else {
				target -= p.tree[left]
				node = left + 1
			}
		}
		leaf := node - (p.capacity - 1)
		if leaf >= p.size { // unfilled leaf (zero priority); fall back
			leaf = rng.Intn(p.size)
		}
		idxs[i] = leaf
		trs[i] = p.data[leaf]
		prob := p.tree[node] / total
		if prob <= 0 {
			prob = 1e-12
		}
		w := math.Pow(float64(p.size)*prob, -beta)
		weights[i] = w
		if w > maxW {
			maxW = w
		}
	}
	if maxW > 0 {
		for i := range weights {
			weights[i] /= maxW
		}
	}
	return trs, idxs, weights
}

// UpdatePriorities sets new |TD-error| priorities for sampled indices.
func (p *PrioritizedReplay) UpdatePriorities(idxs []int, tdErrs []float64) {
	for i, idx := range idxs {
		prio := math.Abs(tdErrs[i]) + 1e-6
		if prio > p.maxPrio {
			p.maxPrio = prio
		}
		p.setPriority(idx, prio)
	}
}
