package space

import (
	"fmt"
	"math"
)

// Arena stores one point per slot, all of one dimension, in a single
// dense coordinate array: slot i holds the dim coordinates starting at
// i*dim. The protocol layers keep every node's position in one (slot =
// NodeID), so ranking a view reads consecutive floats of one array
// instead of chasing a slice header per node.
//
// # Aliasing
//
// At returns a view into the arena, not a copy. It stays valid until the
// slot is next written (for node positions: until the node's next
// projection) or the arena grows; clone it to keep it longer.
type Arena struct {
	dim    int
	coords []float64
}

// NewArena returns an empty arena of points of the given dimension.
func NewArena(dim int) Arena {
	if dim <= 0 {
		panic("space: NewArena requires dim > 0")
	}
	return Arena{dim: dim}
}

// Len returns the number of slots.
func (a Arena) Len() int {
	if a.dim == 0 {
		return 0
	}
	return len(a.coords) / a.dim
}

// At returns slot i's point as a capped view into the arena (see the
// aliasing note on Arena).
func (a Arena) At(i int) Point {
	o := i * a.dim
	return Point(a.coords[o : o+a.dim : o+a.dim])
}

// Set writes p into slot i, first growing the arena to i+1 slots (new
// slots read as the origin). It panics when p has the wrong dimension, as
// that is a programming error.
func (a *Arena) Set(i int, p Point) {
	checkDim(a.dim, p)
	if n := (i + 1) * a.dim; n > len(a.coords) {
		a.coords = append(a.coords, make([]float64, n-len(a.coords))...)
	}
	copy(a.coords[i*a.dim:], p)
}

// ReplaceTail keeps the first n slots and appends the slots whose
// coordinates tail holds (slot-major), reusing the backing array. It
// panics when len(tail) is not a multiple of the dimension, as that is a
// programming error.
func (a *Arena) ReplaceTail(n int, tail []float64) {
	if len(tail)%a.dim != 0 {
		panic(fmt.Sprintf("space: %d coordinates do not form points of dimension %d", len(tail), a.dim))
	}
	a.coords = append(a.coords[:n*a.dim], tail...)
}

// CopyFrom makes a an independent copy of b, reusing a's backing array.
func (a *Arena) CopyFrom(b Arena) {
	a.dim = b.dim
	a.coords = append(a.coords[:0], b.coords...)
}

// Distances sets dist[i] to s.Distance(a.At(int(slots[i])), target) for
// every i, bit for bit. On a Torus it runs a flat kernel over the arena's
// coordinates that performs Torus.Distance's arithmetic in the same
// order, without the per-pair dimension checks and interface dispatch;
// every other space goes through Space.Distance. dist must hold at least
// len(slots) entries. This is the ranking loop of the overlay layers.
func Distances[I ~int](s Space, a Arena, target Point, slots []I, dist []float64) {
	dist = dist[:len(slots)]
	t, ok := s.(Torus)
	if !ok {
		for i, c := range slots {
			dist[i] = s.Distance(a.At(int(c)), target)
		}
		return
	}
	dim := len(t.widths)
	checkDim(dim, target)
	if a.dim != dim {
		panic(fmt.Sprintf("space: arena of dimension %d ranked in a torus of dimension %d", a.dim, dim))
	}
	coords := a.coords
	for i, c := range slots {
		o := dim * int(c)
		p := coords[o : o+dim : o+dim]
		sum := 0.0
		for j, w := range t.widths {
			d := wrapDelta(p[j]-target[j], w)
			sum += d * d
		}
		dist[i] = math.Sqrt(sum)
	}
}
