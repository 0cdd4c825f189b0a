package space

import (
	"math"
	"testing"
)

// Fuzz targets for the torus geometry: the metric axioms the whole
// protocol stack leans on (Space interface contract), the wrap-around
// canonicalisation, and the grid/cell correspondence the evaluation
// scenario builds its failure regions from. Run the seed corpus with
// go test; explore with go test -fuzz=FuzzTorus... .

const fuzzEps = 1e-9

// sanitizeWidth maps arbitrary float input to a usable circumference.
func sanitizeWidth(w float64) float64 {
	if math.IsNaN(w) || math.IsInf(w, 0) {
		return 1
	}
	w = math.Abs(w)
	if w < 1e-3 {
		return 1e-3 + w
	}
	if w > 1e6 {
		return 1e6
	}
	return w
}

// sanitizeCoord maps arbitrary float input to a finite coordinate.
func sanitizeCoord(c float64) float64 {
	if math.IsNaN(c) || math.IsInf(c, 0) {
		return 0
	}
	return math.Mod(c, 1e9)
}

func FuzzTorusDistanceSymmetry(f *testing.F) {
	f.Add(80.0, 40.0, 1.0, 2.0, 70.0, 30.0)
	f.Add(1.0, 1.0, 0.0, 0.0, 0.5, 0.5)
	f.Add(320.0, 160.0, -5.0, 900.0, 319.9, 0.1)
	f.Fuzz(func(t *testing.T, w1, w2, ax, ay, bx, by float64) {
		tor := NewTorus(sanitizeWidth(w1), sanitizeWidth(w2))
		a := Point{sanitizeCoord(ax), sanitizeCoord(ay)}
		b := Point{sanitizeCoord(bx), sanitizeCoord(by)}

		dab, dba := tor.Distance(a, b), tor.Distance(b, a)
		if math.Abs(dab-dba) > fuzzEps*(1+dab) {
			t.Fatalf("asymmetric: d(a,b)=%v d(b,a)=%v (a=%v b=%v)", dab, dba, a, b)
		}
		if dab < 0 || math.IsNaN(dab) {
			t.Fatalf("invalid distance %v", dab)
		}
		if d := tor.Distance(a, a); d != 0 {
			t.Fatalf("d(a,a) = %v, want 0", d)
		}
		// No pair can be further apart than the half-circumference diagonal.
		bound := math.Hypot(tor.Width(0)/2, tor.Width(1)/2)
		if dab > bound*(1+fuzzEps) {
			t.Fatalf("d=%v exceeds half-diagonal %v", dab, bound)
		}
	})
}

func FuzzTorusTriangleInequality(f *testing.F) {
	f.Add(80.0, 40.0, 1.0, 2.0, 41.0, 20.0, 79.0, 39.0)
	f.Add(2.0, 3.0, 0.1, 0.1, 1.9, 2.9, 1.0, 1.5)
	f.Fuzz(func(t *testing.T, w1, w2, ax, ay, bx, by, cx, cy float64) {
		tor := NewTorus(sanitizeWidth(w1), sanitizeWidth(w2))
		a := Point{sanitizeCoord(ax), sanitizeCoord(ay)}
		b := Point{sanitizeCoord(bx), sanitizeCoord(by)}
		c := Point{sanitizeCoord(cx), sanitizeCoord(cy)}

		dac := tor.Distance(a, c)
		viaB := tor.Distance(a, b) + tor.Distance(b, c)
		if dac > viaB+fuzzEps*(1+viaB) {
			t.Fatalf("triangle violated: d(a,c)=%v > d(a,b)+d(b,c)=%v", dac, viaB)
		}
	})
}

func FuzzTorusWrapCanonical(f *testing.F) {
	f.Add(80.0, 40.0, -1.0, 41.5)
	f.Add(1.0, 1.0, 1e6, -1e6)
	f.Fuzz(func(t *testing.T, w1, w2, px, py float64) {
		tor := NewTorus(sanitizeWidth(w1), sanitizeWidth(w2))
		p := Point{sanitizeCoord(px), sanitizeCoord(py)}

		q := tor.Wrap(p)
		for i, c := range q {
			if c < 0 || c >= tor.Width(i) {
				t.Fatalf("Wrap out of range: %v (widths %v, %v)", q, tor.Width(0), tor.Width(1))
			}
		}
		// Wrapping is idempotent and distance-preserving: the wrapped
		// representative is metrically indistinguishable from the original.
		if !tor.Wrap(q).Equal(q) {
			t.Fatalf("Wrap not idempotent: %v -> %v", q, tor.Wrap(q))
		}
		if d := tor.Distance(p, q); d > fuzzEps*(1+math.Abs(p[0])+math.Abs(p[1])) {
			t.Fatalf("Wrap moved the point: d(p, Wrap(p)) = %v", d)
		}
	})
}

func FuzzTorusGridCellInverse(f *testing.F) {
	f.Add(uint8(80), uint8(40), 1.0)
	f.Add(uint8(16), uint8(8), 2.5)
	f.Add(uint8(1), uint8(1), 0.25)
	f.Fuzz(func(t *testing.T, w8, h8 uint8, step float64) {
		w, h := int(w8%64)+1, int(h8%64)+1
		if math.IsNaN(step) || math.IsInf(step, 0) {
			step = 1
		}
		step = math.Abs(step)
		if step < 1e-3 || step > 1e3 {
			step = 1
		}

		pts := TorusGrid(w, h, step)
		if len(pts) != w*h {
			t.Fatalf("grid size %d, want %d", len(pts), w*h)
		}
		tor := TorusForGrid(w, h, step)
		for idx, p := range pts {
			// Row-major cell inverse: the point determines its grid cell,
			// and the cell determines its slice index.
			x := int(math.Round(p[0] / step))
			y := int(math.Round(p[1] / step))
			if got := y*w + x; got != idx {
				t.Fatalf("cell inverse broken: point %v at index %d maps to %d (x=%d y=%d)",
					p, idx, got, x, y)
			}
			// Every grid point is already canonical on its torus.
			if !tor.Wrap(p).Equal(p) {
				t.Fatalf("grid point %v not canonical on torus (%v x %v)",
					p, tor.Width(0), tor.Width(1))
			}
		}
		// Adjacent cells sit exactly one step apart (w > 1 needed for a
		// horizontal neighbour).
		if w > 1 {
			if d := tor.Distance(pts[0], pts[1]); math.Abs(d-step) > fuzzEps*step {
				t.Fatalf("grid spacing %v, want %v", d, step)
			}
		}
	})
}

// branchDistance is the torus distance with one branch per decision, as
// Torus.Distance was first written; its branch-free wrapDelta must agree
// with it bit for bit on finite coordinates.
func branchDistance(widths []float64, a, b Point) float64 {
	sum := 0.0
	for i, w := range widths {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d >= w {
			d = math.Mod(d, w)
		}
		if d > w/2 {
			d = w - d
		}
		sum += d * d
	}
	return math.Sqrt(sum)
}

// FuzzTorusFlatDistance pins the arena ranking kernel to Torus.Distance,
// and Torus.Distance to branchDistance, bit for bit, in 1, 2 and 3
// dimensions: the overlay layers rank candidates with Distances, and any
// rounding difference would change which neighbours they keep. Each case
// ranks, against one target, a raw point (deltas of either sign, beyond
// the width), the target shifted by exactly half a width in every
// dimension, and the target itself.
func FuzzTorusFlatDistance(f *testing.F) {
	f.Add(uint8(2), 80.0, 40.0, 7.0, 1.0, 2.0, 3.0, 70.0, 30.0, 5.0)
	f.Add(uint8(1), 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.5, 0.5, 0.5)
	f.Add(uint8(3), 320.0, 160.0, 3.0, -5.0, 900.0, -0.5, 319.9, 0.1, 2.9)
	f.Add(uint8(2), 0.3, 1e6, 2.0, 1e9, -1e9, 4.0, -0.15, 5e5, 1.0)
	f.Add(uint8(2), 80.0, 40.0, 7.0, 80.0, -40.0, 7.0, 0.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, dimSel uint8, w0, w1, w2, ax, ay, az, bx, by, bz float64) {
		dim := int(dimSel%3) + 1
		widths := []float64{sanitizeWidth(w0), sanitizeWidth(w1), sanitizeWidth(w2)}[:dim]
		tor := NewTorus(widths...)
		a := Point{sanitizeCoord(ax), sanitizeCoord(ay), sanitizeCoord(az)}[:dim]
		target := Point{sanitizeCoord(bx), sanitizeCoord(by), sanitizeCoord(bz)}[:dim]
		half := target.Clone()
		for i, w := range widths {
			half[i] += w / 2
		}

		arena := NewArena(dim)
		arena.Set(0, a)
		arena.Set(1, half)
		arena.Set(2, target)
		slots := []int{2, 0, 1, 0}
		dist := make([]float64, len(slots))
		Distances(tor, arena, target, slots, dist)
		for i, c := range slots {
			want := tor.Distance(arena.At(c), target)
			if ref := branchDistance(widths, arena.At(c), target); math.Float64bits(want) != math.Float64bits(ref) {
				t.Fatalf("dim %d slot %d (%v to %v): Torus.Distance %v, branch form %v", dim, c, arena.At(c), target, want, ref)
			}
			if math.Float64bits(dist[i]) != math.Float64bits(want) {
				t.Fatalf("dim %d slot %d (%v to %v): flat %v (%#x), Torus.Distance %v (%#x)",
					dim, c, arena.At(c), target, dist[i], math.Float64bits(dist[i]), want, math.Float64bits(want))
			}
		}
	})
}
