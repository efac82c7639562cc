package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"relsim/internal/datasets"
	"relsim/internal/mapping"
	"relsim/internal/rre"
	"relsim/internal/store"
)

// TestSearchInvariantUnderDBLP2SIGM takes the paper's theorem through
// the serving path: /search on dblp-small, and on its image under the
// invertible transformation DBLP2SIGM with the pattern rewritten by the
// Corollary-1 mapping, returns the same ranked ids with the same scores
// (Theorem 2: equal instance counts, hence equal Equation-1 scores).
// The two sides cut different chains — the rewritten pattern's factors
// are skips over the premise traversals — so this also crosses the
// halves scorer with the skip and nest rules.
func TestSearchInvariantUnderDBLP2SIGM(t *testing.T) {
	ds, err := datasets.ByName("dblp-small")
	if err != nil {
		t.Fatal(err)
	}
	image := datasets.DBLP2SIGM().Apply(ds.Graph)
	src := New(store.New(ds.Graph), ds.Schema)
	dst := New(store.New(image), nil)

	for _, pat := range []string{"p-in-.r-a.r-a-.p-in", "p-in-.[w-].r-a.r-a-.p-in", "p-in-.<r-a.r-a->.p-in"} {
		rewritten, err := mapping.RewritePattern(rre.MustParse(pat), datasets.DBLP2SIGMInverse())
		if err != nil {
			t.Fatal(err)
		}
		if rewritten.String() == pat {
			t.Fatalf("%s rewrites to itself: the image side would test nothing", pat)
		}
		for q := 0; q < 40; q += 3 {
			ask := func(srv *Server, pattern string) []ScoredNode {
				var resp SearchResponse
				req := SearchRequest{Pattern: pattern, Query: fmt.Sprintf("proc%d", q), Type: "proc", Alg: "relsim", Top: 1000}
				code, body := doJSON(t, srv, "/search", req)
				if code != http.StatusOK {
					t.Fatalf("/search %s: status %d (%s)", pattern, code, body)
				}
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Fatal(err)
				}
				return resp.Results
			}
			want, got := ask(src, pat), ask(dst, rewritten.String())
			if len(want) == 0 {
				t.Fatalf("%s from proc%d ranks nothing", pat, q)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s from proc%d: the image under DBLP2SIGM answers %s with\n%v\nwant\n%v", pat, q, rewritten, got, want)
			}
		}
	}
}
