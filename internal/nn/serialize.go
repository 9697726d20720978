package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
)

// paramBlob is the wire format of one parameter.
type paramBlob struct {
	Name       string
	Rows, Cols int
	Data       []float64
}

// Save writes every parameter of m to w in a stable, self-describing
// format. Use Load with an identically constructed module to restore.
func Save(w io.Writer, m Module) error {
	params := m.Params()
	blobs := make([]paramBlob, 0, len(params))
	for _, p := range params {
		blobs = append(blobs, paramBlob{Name: p.Name, Rows: p.W.Rows, Cols: p.W.Cols, Data: p.W.Data})
	}
	if err := gob.NewEncoder(w).Encode(blobs); err != nil {
		return fmt.Errorf("nn: save: %w", err)
	}
	return nil
}

// Load restores parameters previously written by Save into m. The module
// must have the same architecture (same parameter names and shapes in the
// same order) as the one that was saved. Load is all-or-nothing: every
// blob's name, shape, length and finiteness is checked before any
// parameter is written.
func Load(r io.Reader, m Module) error {
	var blobs []paramBlob
	if err := gob.NewDecoder(r).Decode(&blobs); err != nil {
		return fmt.Errorf("nn: load: %w", err)
	}
	params := m.Params()
	if len(blobs) != len(params) {
		return fmt.Errorf("nn: load: parameter count mismatch: saved %d, module has %d",
			len(blobs), len(params))
	}
	// Validate every blob before copying any, so a bad checkpoint returns
	// an error with the module untouched instead of half overwritten.
	for i, p := range params {
		b := blobs[i]
		if b.Name != p.Name {
			return fmt.Errorf("nn: load: parameter %d name mismatch: saved %q, module has %q",
				i, b.Name, p.Name)
		}
		if b.Rows != p.W.Rows || b.Cols != p.W.Cols {
			return fmt.Errorf("nn: load: parameter %q shape mismatch: saved %dx%d, module has %dx%d",
				b.Name, b.Rows, b.Cols, p.W.Rows, p.W.Cols)
		}
		if len(b.Data) != len(p.W.Data) {
			return fmt.Errorf("nn: load: parameter %q data length mismatch", b.Name)
		}
		for j, v := range b.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: load: parameter %q element %d is %v", b.Name, j, v)
			}
		}
	}
	for i, p := range params {
		copy(p.W.Data, blobs[i].Data)
	}
	return nil
}
