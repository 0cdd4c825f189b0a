package shape

import (
	"math"
	"testing"

	"polystyrene/internal/core"
	"polystyrene/internal/fd"
	"polystyrene/internal/metrics"
	"polystyrene/internal/rps"
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
	"polystyrene/internal/tman"
	"polystyrene/internal/xrand"
)

func TestGridAndRingDelegate(t *testing.T) {
	if len(Grid(4, 3, 1)) != 12 {
		t.Fatal("Grid size")
	}
	if len(Ring(7, 70)) != 7 {
		t.Fatal("Ring size")
	}
}

func TestClusters(t *testing.T) {
	rng := xrand.New(1)
	centers := []space.Point{{0, 0}, {100, 100}}
	pts := Clusters(centers, 50, 2, rng)
	if len(pts) != 100 {
		t.Fatalf("points = %d", len(pts))
	}
	// Points must sit near their own centre, far from the other.
	for i, p := range pts {
		c := centers[i/50]
		d := math.Hypot(p[0]-c[0], p[1]-c[1])
		if d > 12 { // 6 sigma
			t.Fatalf("point %d at distance %v from its centre", i, d)
		}
	}
	if Clusters(nil, 5, 1, rng) != nil || Clusters(centers, 0, 1, rng) != nil {
		t.Fatal("degenerate clusters not nil")
	}
}

func TestCross(t *testing.T) {
	pts := Cross(10, 10, 1)
	if len(pts) == 0 {
		t.Fatal("empty cross")
	}
	// Every point lies on one of the two centre lines.
	for _, p := range pts {
		if p[0] != 5 && p[1] != 5 {
			t.Fatalf("point %v off the cross arms", p)
		}
	}
	// No duplicate at the junction.
	seen := map[string]bool{}
	for _, p := range pts {
		if seen[p.Key()] {
			t.Fatalf("duplicate point %v", p)
		}
		seen[p.Key()] = true
	}
	if Cross(0, 1, 1) != nil {
		t.Fatal("degenerate cross not nil")
	}
}

func TestSphere(t *testing.T) {
	pts := Sphere(200, 5)
	if len(pts) != 200 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		r := math.Sqrt(p[0]*p[0] + p[1]*p[1] + p[2]*p[2])
		if math.Abs(r-5) > 1e-9 {
			t.Fatalf("point %v at radius %v, want 5", p, r)
		}
	}
	// Roughly balanced hemispheres.
	north := 0
	for _, p := range pts {
		if p[1] > 0 {
			north++
		}
	}
	if north < 80 || north > 120 {
		t.Fatalf("northern hemisphere holds %d of 200", north)
	}
	if Sphere(0, 1) != nil || Sphere(1, 0) != nil {
		t.Fatal("degenerate sphere not nil")
	}
}

func TestUniformTorus(t *testing.T) {
	tor := space.NewTorus(10, 20)
	pts := UniformTorus(500, tor, xrand.New(2))
	if len(pts) != 500 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p[0] < 0 || p[0] >= 10 || p[1] < 0 || p[1] >= 20 {
			t.Fatalf("point %v out of torus", p)
		}
	}
	if UniformTorus(0, tor, xrand.New(1)) != nil {
		t.Fatal("degenerate cloud not nil")
	}
}

func TestInternRegistersGeneratedShape(t *testing.T) {
	in := space.NewInterner()
	pts := Cross(25, 20, 0.5)
	ids := Intern(in, pts)
	if len(ids) != len(pts) || in.Len() != len(pts) {
		t.Fatalf("interned %d IDs / %d points for a %d-point shape",
			len(ids), in.Len(), len(pts))
	}
	for i, id := range ids {
		if !in.PointOf(id).Equal(pts[i]) {
			t.Fatalf("ID %d resolves to %v, want %v", id, in.PointOf(id), pts[i])
		}
	}
	// Re-interning the same shape is a no-op (same IDs, no growth).
	again := Intern(in, pts)
	for i := range ids {
		if again[i] != ids[i] {
			t.Fatalf("re-intern changed ID %d: %d -> %d", i, ids[i], again[i])
		}
	}
	if in.Len() != len(pts) {
		t.Fatalf("re-intern grew the universe to %d", in.Len())
	}
}

func TestBoundingTorus(t *testing.T) {
	pts := []space.Point{{3, 8}, {7, 2}}
	tor := BoundingTorus(pts, 1)
	if tor.Width(0) != 8 || tor.Width(1) != 9 {
		t.Fatalf("widths = %v,%v", tor.Width(0), tor.Width(1))
	}
	empty := BoundingTorus(nil, 1)
	if empty.Dim() != 2 {
		t.Fatal("empty bounding torus malformed")
	}
}

// TestCrossShapeSurvivesCatastrophe is the generality check behind the
// paper's title: the maintained shape need not be a grid. Build a cross,
// crash one arm, and verify the survivors re-form the whole cross.
func TestCrossShapeSurvivesCatastrophe(t *testing.T) {
	pts := Cross(20, 20, 0.5)
	tor := BoundingTorus(pts, 4)
	sampler := rps.New(rps.Config{})
	var poly *core.Protocol
	tm := tman.MustNew(tman.Config{
		Space:     tor,
		Sampler:   sampler,
		Positions: func() space.Arena { return poly.Positions() },
	})
	poly = core.MustNew(core.Config{
		Space:    tor,
		Topology: tm,
		Sampler:  sampler,
		Detector: fd.Perfect{},
		K:        6,
		InitialPoint: func(id sim.NodeID) (space.Point, bool) {
			return pts[id], true
		},
	})
	e := sim.New(42, sampler, tm, poly)
	e.AddNodes(len(pts))
	e.RunRounds(15)

	// Crash the entire right arm of the horizontal bar (x > 12.5).
	for _, id := range e.LiveIDs() {
		if poly.Position(id)[0] > 12.5 {
			e.Kill(id)
		}
	}
	e.RunRounds(25)

	sys := shapeSystem{e: e, poly: poly, tor: tor, tm: tm}
	hom := metrics.Homogeneity(sys, pts)
	// Cross spacing is 0.5 and the survivors cover ~60 points with ~45
	// nodes; each original point should be hosted within ~one spacing.
	if hom > 0.75 {
		t.Fatalf("cross shape not recovered: homogeneity %v", hom)
	}
	// The dead arm must be repopulated.
	rightArm := 0
	for _, id := range e.LiveIDs() {
		if p := poly.Position(id); p[0] > 12.5 && p[1] == 10 {
			rightArm++
		}
	}
	if rightArm == 0 {
		t.Fatal("no survivor migrated onto the crashed arm")
	}
}

// shapeSystem adapts the hand-built stack to metrics.System.
type shapeSystem struct {
	e    *sim.Engine
	poly *core.Protocol
	tor  space.Torus
	tm   *tman.Protocol
}

func (s shapeSystem) Space() space.Space                 { return s.tor }
func (s shapeSystem) Live() []sim.NodeID                 { return s.e.LiveIDs() }
func (s shapeSystem) Alive(id sim.NodeID) bool           { return s.e.Alive(id) }
func (s shapeSystem) Position(id sim.NodeID) space.Point { return s.poly.Position(id) }
func (s shapeSystem) Guests(id sim.NodeID) []space.Point { return s.poly.Guests(id) }
func (s shapeSystem) NumGuests(id sim.NodeID) int        { return s.poly.NumGuests(id) }
func (s shapeSystem) NumGhosts(id sim.NodeID) int        { return s.poly.NumGhosts(id) }
func (s shapeSystem) EachNeighbor(id sim.NodeID, k int, yield func(sim.NodeID) bool) {
	s.tm.EachNeighbor(id, k, yield)
}
