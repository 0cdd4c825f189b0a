package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the median of xs (NaN when empty). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// latencies collects one timing per attempted operation. A failed or
// refused operation is recorded as missing: it counts as slower than any
// limit, so it sits above every successful sample.
type latencies struct {
	ok      []float64
	missing int
}

func (l *latencies) add(v float64) { l.ok = append(l.ok, v) }
func (l *latencies) miss()         { l.missing++ }
func (l *latencies) count() int    { return len(l.ok) + l.missing }

// percentile returns the q-quantile (0 < q < 1) over all attempts by the
// nearest-rank rule, with missing samples ranked last. It fails when
// fewer than minTail attempts lie beyond the rank, or when the rank
// lands on a missing sample (the percentile is then unbounded).
func (l *latencies) percentile(q float64) (float64, error) {
	n := l.count()
	if n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", 100*q, minTail, beyond, n)
	}
	if rank > len(l.ok) {
		return 0, fmt.Errorf("p%g falls on a failed query (%d of %d missing)", 100*q, l.missing, n)
	}
	s := append([]float64(nil), l.ok...)
	sort.Float64s(s)
	return s[rank-1], nil
}
