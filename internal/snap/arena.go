package snap

import (
	"fmt"

	"polystyrene/internal/space"
)

// WriteArenaTail writes slots [from, a.Len()) of a position arena as a
// count followed by one (slot, dimension, coordinates) record per slot:
// the positions pinned to nodes that joined after the initial
// population, which the initial wiring cannot recompute.
func WriteArenaTail(w *Writer, a space.Arena, from int) {
	n := a.Len() - from
	if n < 0 {
		n = 0
	}
	w.Len(n)
	for i := from; i < a.Len(); i++ {
		w.Int(i)
		p := a.At(i)
		w.Len(len(p))
		for _, c := range p {
			w.F64(c)
		}
	}
}

// ReadArenaTail reads what WriteArenaTail wrote for an arena of the given
// dimension whose tail starts at slot from, returning the tail's
// coordinates slot-major. It refuses records that are out of sequence or
// of the wrong dimension.
func ReadArenaTail(r *Reader, dim, from int) ([]float64, error) {
	n := r.Len(16 + 8*dim)
	coords := make([]float64, 0, n*dim)
	for i := 0; i < n; i++ {
		slot, d := r.Int(), r.Len(8)
		if err := r.Err(); err != nil {
			return nil, err
		}
		if slot != from+i || d != dim {
			return nil, fmt.Errorf("snap: arena record %d is slot %d of dimension %d, want slot %d of dimension %d", i, slot, d, from+i, dim)
		}
		for j := 0; j < dim; j++ {
			coords = append(coords, r.F64())
		}
	}
	return coords, r.Err()
}
