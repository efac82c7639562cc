package rre

import (
	"sync"
	"testing"
)

// TestStringRenderedOnce: a node keeps its rendering, so concurrent
// first callers of String and every later one read one value, the one
// a fresh parse of the same source renders and parses back from.
func TestStringRenderedOnce(t *testing.T) {
	const src = "w.(p-in.p-in- + w-.w).w-.[a*].<b.c>"
	p := MustParse(src)
	got := make([]string, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = p.String()
		}()
	}
	wg.Wait()
	want := MustParse(src).String()
	for i, s := range got {
		if s != want {
			t.Fatalf("caller %d rendered %q, want %q", i, s, want)
		}
	}
	if s := p.String(); s != want {
		t.Fatalf("a later call rendered %q, want %q", s, want)
	}
	back, err := Parse(want)
	if err != nil || !back.Equal(p) {
		t.Fatalf("round trip %q: %v, %v", want, back, err)
	}
	// A node built over an already-rendered one renders on its own.
	if r := Rev(p).String(); r == want {
		t.Fatalf("Rev(%s) rendered as the pattern itself", want)
	}
}
