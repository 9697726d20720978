package tensor

// Weights wraps a canonical float64 parameter matrix with a lazily built,
// generation-counted transpose: the layout the dot kernels in dot.go read
// (T). The transpose is rebuilt from the canonical matrix the first time
// it is requested after a Touch, then served from cache; in steady-state
// inference (no Touch between forwards) every access is a pointer read.
//
// Touch discipline: every mutation of the canonical matrix's Data must be
// followed by a Touch before the next T access, or the transpose goes
// stale. Inside this codebase all weight mutation funnels through
// internal/nn (optimizer steps, CopyParams/SoftUpdate, checkpoint Load,
// init), which Touches at each site; the staleness test in internal/nn
// pins that.
//
// Transposition is pure data relayout — it changes which float is loaded
// when, never what the consuming kernel multiplies or in which order — so
// a kernel reading T is bit-identical to the same kernel transposing on
// the fly.
type Weights struct {
	m   *Matrix
	gen uint64

	t    *Matrix
	tGen uint64
}

// NewWeights wraps m. The wrapper aliases m — it does not copy — so
// mutations through either handle are visible to both.
func NewWeights(m *Matrix) *Weights {
	return &Weights{m: m, gen: 1}
}

// Mat returns the canonical float64 matrix.
func (w *Weights) Mat() *Matrix { return w.m }

// Touch invalidates the cached transpose; the next T rebuilds it from the
// canonical matrix. Call after any mutation of Mat().Data.
func (w *Weights) Touch() { w.gen++ }

// T returns the cached float64 transpose of the canonical matrix.
// The returned matrix is owned by the cache: callers must not write it,
// and it is only valid until the next Touch.
func (w *Weights) T() *Matrix {
	if w.t == nil {
		w.t = New(w.m.Cols, w.m.Rows)
		w.tGen = 0
	}
	if w.tGen != w.gen {
		TransposeInto(w.t, w.m)
		w.tGen = w.gen
	}
	return w.t
}
