package server

import (
	"net/http"
	"slices"
	"testing"
)

// TestTypeRestrictsAnswers pins what runSearch promises of `type`. A
// type no node has answers 200 with no results, on /search and in a
// /batch result, never an unfiltered ranking. Omitting the type ranks
// every node. A type a commit adds first is answered from the version
// that added it, and a reader pinned at the version before finds it
// unknown. From p1, by.by- + by reaches the papers p2 and p4 and the
// authors a1 and a2.
func TestTypeRestrictsAnswers(t *testing.T) {
	srv, ts := newTestServer(t)
	const pat = "by.by- + by"
	types := func(resp *SearchResponse) []string {
		var out []string
		snap, _ := srv.st.Snapshot()
		for _, r := range resp.Results {
			if typ := snap.Node(r.ID).Type; !slices.Contains(out, typ) {
				out = append(out, typ)
			}
		}
		slices.Sort(out)
		return out
	}
	for _, tc := range []struct {
		typ  string
		want []string
	}{
		{"", []string{"author", "paper"}},
		{"author", []string{"author"}},
		{"paper", []string{"paper"}},
		{"papr", nil},
	} {
		var resp SearchResponse
		if code := post(t, ts, "/search", SearchRequest{Pattern: pat, Query: "p1", Type: tc.typ}, &resp); code != http.StatusOK {
			t.Fatalf("/search type %q: status %d", tc.typ, code)
		}
		if got := types(&resp); !slices.Equal(got, tc.want) {
			t.Errorf("/search type %q answers %v, types %v; want types %v", tc.typ, resp.Results, got, tc.want)
		}
		var batch BatchResponse
		if code := post(t, ts, "/batch", BatchRequest{Queries: []SearchRequest{{Pattern: pat, Query: "p1", Type: tc.typ}}}, &batch); code != http.StatusOK {
			t.Fatalf("/batch type %q: status %d", tc.typ, code)
		}
		if res := batch.Results[0]; res.Error != "" {
			t.Errorf("/batch type %q: %s", tc.typ, res.Error)
		} else if got := types(res.SearchResponse); !slices.Equal(got, tc.want) {
			t.Errorf("/batch type %q answers types %v; want %v", tc.typ, got, tc.want)
		}
	}

	old := srv.st.Pin()
	defer old.Release()
	var mut MutationResponse
	if code := post(t, ts, "/graph/edges", MutationRequest{
		AddNodes: []NodeSpec{{Name: "v1", Type: "venue"}},
		Add:      []EdgeSpec{{From: "p1", Label: "by", To: "v1"}},
	}, &mut); code != http.StatusOK {
		t.Fatalf("commit: status %d (%s)", code, mut.Error)
	}
	req := SearchRequest{Pattern: pat, Query: "p1", Type: "venue"}
	var resp SearchResponse
	if code := post(t, ts, "/search", req, &resp); code != http.StatusOK || len(resp.Results) != 1 || resp.Results[0].Name != "v1" {
		t.Fatalf("type venue at v%d: status %d, answers %v; want v1 alone", mut.Version, code, resp.Results)
	}
	before, err := srv.runSearch(srv.evaluator(old.Snapshot(), old.Version()), &req, nil)
	if err != nil || len(before.Results) != 0 {
		t.Fatalf("type venue at v%d, before the commit: answers %v, error %v; want none", old.Version(), before, err)
	}
}

// TestWarmSearchParsesNothing: the expansion memo is keyed by the
// pattern string the client sent, and only a miss parses it, so
// /search and /batch repeating one pattern miss once between them.
func TestWarmSearchParsesNothing(t *testing.T) {
	srv, ts := newTestServer(t)
	req := SearchRequest{Pattern: "by.by-", Query: "p1", Type: "paper"}
	start := srv.Stats().ExpandMemo
	for i := 0; i < 3; i++ {
		if code := post(t, ts, "/search", req, &SearchResponse{}); code != http.StatusOK {
			t.Fatalf("/search: status %d", code)
		}
	}
	if code := post(t, ts, "/batch", BatchRequest{Queries: []SearchRequest{req, req, req, req}}, &BatchResponse{}); code != http.StatusOK {
		t.Fatalf("/batch: status %d", code)
	}
	memo := srv.Stats().ExpandMemo
	if misses, hits := memo.Misses-start.Misses, memo.Hits-start.Hits; misses != 1 || hits != 6 {
		t.Fatalf("seven reads of one pattern: %d memo misses, %d hits; want 1 and 6", misses, hits)
	}
}
