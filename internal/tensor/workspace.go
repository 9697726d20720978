package tensor

// Workspace is a shape-keyed arena of scratch matrices for hot loops that
// would otherwise allocate a fresh matrix per operation. Get hands out a
// matrix of the requested shape, creating one only the first time a shape
// is requested more often than any previous pass; Reset returns every
// matrix to the arena at once. After a warm-up pass that establishes the
// high-water mark per shape, a Reset/Get cycle performs zero heap
// allocations.
//
// Ownership rules:
//
//   - A matrix returned by Get is exclusively owned by the caller until the
//     next Reset. Two Gets never return the same matrix between Resets.
//   - Reset reclaims every matrix ever handed out; holding a matrix across
//     a Reset is a use-after-free-style bug (the data will be overwritten
//     by whoever Gets the shape next). The idiomatic pattern is one Reset
//     at the top of a layer's Forward, with Backward drawing from the same
//     arena without resetting, so forward caches stay valid exactly until
//     the next Forward.
//   - Get returns a matrix with unspecified contents; use GetZero when the
//     caller accumulates into it.
//
// A Workspace is not safe for concurrent use; give each goroutine-owned
// model replica its own (the zero value is ready to use).
type Workspace struct {
	pools map[int64]*wsPool
}

type wsPool struct {
	bufs []*Matrix
	next int
}

// Get returns an exclusively owned rows×cols float64 scratch matrix with
// unspecified contents, valid until the next Reset.
func (w *Workspace) Get(rows, cols int) *Matrix {
	// Pools are keyed by rows<<31 | cols, both far below 2^31 in practice.
	key := int64(rows)<<31 | int64(uint32(cols))
	p := w.pools[key]
	if p == nil {
		if w.pools == nil {
			w.pools = make(map[int64]*wsPool)
		}
		p = &wsPool{}
		w.pools[key] = p
	}
	if p.next == len(p.bufs) {
		p.bufs = append(p.bufs, New(rows, cols))
	}
	m := p.bufs[p.next]
	p.next++
	return m
}

// GetZero is Get with the returned matrix zeroed.
func (w *Workspace) GetZero(rows, cols int) *Matrix {
	m := w.Get(rows, cols)
	m.Zero()
	return m
}

// Reset reclaims every matrix handed out since the previous Reset. The
// matrices keep their storage, so the next pass reuses it.
func (w *Workspace) Reset() {
	for _, p := range w.pools {
		p.next = 0
	}
}
