package core

import "polystyrene/internal/space"

// PassPositions exposes the start-of-pass copy of the position arena that
// the last batched pass ranked by, to the external arena tests.
func PassPositions(p *Protocol) space.Arena { return p.posSnap }
