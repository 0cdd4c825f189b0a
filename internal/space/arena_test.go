package space

import "testing"

// TestArenaViewsAndCopies pins the arena's aliasing contract: At is a
// capped view that later writes show through and appends cannot spill
// from, CopyFrom is independent of its source, and ReplaceTail keeps the
// head.
func TestArenaViewsAndCopies(t *testing.T) {
	a := NewArena(2)
	a.Set(0, Point{1, 2})
	a.Set(2, Point{5, 6}) // grows past the unwritten slot 1
	if a.Len() != 3 || !a.At(1).Equal(Point{0, 0}) {
		t.Fatalf("arena of %d slots with slot 1 at %v, want 3 slots and the origin", a.Len(), a.At(1))
	}

	view := a.At(0)
	if cap(view) != 2 {
		t.Fatalf("At has capacity %d, want the dimension 2", cap(view))
	}
	_ = append(view, 99)
	if !a.At(1).Equal(Point{0, 0}) {
		t.Fatalf("appending to slot 0's view spilled into slot 1: %v", a.At(1))
	}
	a.Set(0, Point{3, 4})
	if !view.Equal(Point{3, 4}) {
		t.Fatalf("view of slot 0 reads %v after a write of (3, 4)", view)
	}

	var c Arena
	c.CopyFrom(a)
	a.Set(2, Point{7, 8})
	if !c.At(2).Equal(Point{5, 6}) {
		t.Fatalf("copy changed with its source: slot 2 at %v", c.At(2))
	}

	a.ReplaceTail(1, []float64{9, 10})
	if a.Len() != 2 || !a.At(0).Equal(Point{3, 4}) || !a.At(1).Equal(Point{9, 10}) {
		t.Fatalf("after ReplaceTail: %d slots, %v %v", a.Len(), a.At(0), a.At(1))
	}
}
