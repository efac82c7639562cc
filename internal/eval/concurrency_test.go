package eval

import (
	"sync"
	"testing"

	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// TestConcurrentCommuting hammers the evaluator cache from many
// goroutines; run with -race to check the locking.
func TestConcurrentCommuting(t *testing.T) {
	g, _ := paperGraph()
	ev := New(g)
	patterns := []*rre.Pattern{
		rre.MustParse("area"),
		rre.MustParse("area-.area"),
		rre.MustParse("area-.pub-in.pub-in-.area"),
		rre.MustParse("<area-.pub-in>"),
		rre.MustParse("[pub-in-]"),
	}
	var wg sync.WaitGroup
	results := make([][]int64, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sums []int64
			for i := 0; i < 50; i++ {
				p := patterns[(w+i)%len(patterns)]
				sums = append(sums, total(ev.Commuting(p)))
			}
			results[w] = sums
		}(w)
	}
	wg.Wait()
	// Every worker touching the same pattern must observe the same sum.
	ref := map[string]int64{}
	for _, p := range patterns {
		ref[p.String()] = total(ev.Commuting(p))
	}
	for w := 0; w < 16; w++ {
		for i, s := range results[w] {
			p := patterns[(w+i)%len(patterns)]
			if s != ref[p.String()] {
				t.Fatalf("worker %d step %d: sum %d != %d for %s", w, i, s, ref[p.String()], p)
			}
		}
	}
}

// total returns the sum of m's entries.
func total(m *sparse.Matrix) int64 {
	var s int64
	for _, r := range m.RowSums() {
		s += r
	}
	return s
}
