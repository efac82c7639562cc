package mapping

import (
	"slices"
	"testing"

	"relsim/internal/rre"
)

func TestRenamingRoundTrip(t *testing.T) {
	g := tinyDBLP()
	ren := map[string]string{"w": "writes", "p-in": "published-in", "r-a": "area"}
	fwd := Renaming("ren", ren)
	inv, err := RenamingInverse("ren⁻¹", ren)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyInverse(g, fwd, inv) {
		t.Fatal("a bijective renaming must be invertible on any instance")
	}
	h := fwd.Apply(g)
	if ls := h.Snapshot().Labels(); !slices.Contains(ls, "published-in") || slices.Contains(ls, "p-in") {
		t.Error("labels not renamed")
	}
	if h.Snapshot().NumEdges() != g.Snapshot().NumEdges() {
		t.Errorf("edges = %d, want %d", h.Snapshot().NumEdges(), g.Snapshot().NumEdges())
	}
}

func TestRenamingDropsUnlistedLabels(t *testing.T) {
	g := tinyDBLP()
	fwd := Renaming("partial", map[string]string{"w": "w"})
	h := fwd.Apply(g)
	ls := h.Snapshot().Labels()
	if slices.Contains(ls, "p-in") || slices.Contains(ls, "r-a") {
		t.Error("unlisted labels must be dropped (closed world)")
	}
	if !slices.Contains(ls, "w") {
		t.Error("listed label lost")
	}
}

func TestRenamingInverseRejectsNonInjective(t *testing.T) {
	if _, err := RenamingInverse("bad", map[string]string{"a": "x", "b": "x"}); err == nil {
		t.Fatal("non-injective renaming must be rejected")
	}
}

func TestRenamingRewritePattern(t *testing.T) {
	ren := map[string]string{"w": "writes", "p-in": "published-in", "r-a": "area"}
	inv, err := RenamingInverse("ren⁻¹", ren)
	if err != nil {
		t.Fatal(err)
	}
	p := rre.MustParse("p-in-.r-a")
	q, err := RewritePattern(p, inv)
	if err != nil {
		t.Fatal(err)
	}
	if q.String() != "published-in-.area" {
		t.Errorf("rewritten = %s, want published-in-.area", q)
	}
}
