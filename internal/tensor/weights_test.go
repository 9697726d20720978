package tensor

import (
	"math/rand"
	"testing"
)

// TestWeightsMirrors pins the Weights cache contract: the transpose is
// correct, cached (pointer-stable, no recompute between Touches), stale
// without Touch, and refreshed by it.
func TestWeightsMirrors(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	m := randMat(rng, 5, 7)
	w := NewWeights(m)
	if w.Mat() != m {
		t.Fatal("Mat() should alias the wrapped matrix")
	}

	tr := w.T()
	if !bitsEqual(tr, Transpose(m)) {
		t.Fatal("T() wrong on first access")
	}
	if w.T() != tr {
		t.Fatal("T() should be pointer-stable between Touches")
	}

	// Mutate without Touch: the transpose must be stale (that is the
	// contract the nn mutation sites honor with explicit Touches).
	old := m.At(0, 0)
	m.Set(0, 0, old+42)
	if w.T().At(0, 0) != old {
		t.Fatal("T() recomputed without a Touch — cache is not generation-gated")
	}
	w.Touch()
	if w.T().At(0, 0) != old+42 {
		t.Fatal("T() stale after Touch")
	}

	// Steady state: access after warm-up allocates nothing.
	allocs := testing.AllocsPerRun(100, func() { _ = w.T() })
	if allocs != 0 {
		t.Errorf("steady-state T access allocates %v times", allocs)
	}
}
