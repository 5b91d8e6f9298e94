package core

import (
	"sync/atomic"
	"testing"
)

// TestForEachRunsEveryIndexOnce checks that every index runs exactly once,
// inline and fanned out, including more workers than items and no items.
func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, w int }{{0, 3}, {1, 0}, {7, 1}, {7, 3}, {5, 64}} {
		hits := make([]atomic.Int64, tc.n)
		forEach(tc.n, tc.w, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("n=%d w=%d: index %d ran %d times, want 1", tc.n, tc.w, i, got)
			}
		}
	}
}
