package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"relsim/internal/eval"
	"relsim/internal/rre"
	"relsim/internal/sparse"
	"relsim/internal/store"
)

// TestDeltaMaintenanceDifferential is the serving-path half of the
// harness that locks incremental maintenance in: one server maintains
// its cached matrices across a seeded interleaving of mutation batches
// and read workloads, and after every commit its /batch response must
// match byte for byte that of a cold server built fresh over the same
// version — a store reset onto the pinned snapshot, with an empty
// cache, so every matrix it scores from is recomputed from the
// adjacency. Mutations mix edge additions, removals of edges known to
// be present (so whole batches never roll back and removals are really
// exercised), and node additions, which grow the matrix dimension
// mid-stream. Before each commit a random half of the halves every
// workload so far scores from build their transposes, and after it
// each of them must read, through TransposeCached, a transpose Equal
// to its Transpose: the maintained entries carry theirs through the
// commit.
func TestDeltaMaintenanceDifferential(t *testing.T) {
	maintained := New(store.New(testGraph()), nil)

	rng := rand.New(rand.NewSource(131))
	nodes := []string{"p1", "p2", "p3", "p4", "a1", "a2", "a3"}
	labels := []string{"by", "cites"}
	// present tracks edge multiplicity so removals always target a live
	// edge.
	present := []EdgeSpec{
		{From: "p1", Label: "by", To: "a1"},
		{From: "p1", Label: "by", To: "a2"},
		{From: "p2", Label: "by", To: "a1"},
		{From: "p2", Label: "by", To: "a2"},
		{From: "p3", Label: "by", To: "a3"},
		{From: "p4", Label: "by", To: "a2"},
		{From: "p1", Label: "cites", To: "p3"},
	}

	// halves returns the cut halves of every pattern served so far, at
	// the maintained server's current version.
	var served []*rre.Pattern
	halves := func() []*sparse.Matrix {
		view, ver := maintained.Store().Snapshot()
		ev := maintained.evaluator(view, ver)
		var ms []*sparse.Matrix
		for _, p := range served {
			for _, t := range eval.NewCut(p) {
				a, bt := ev.Halves(t)
				ms = append(ms, a)
				if bt != nil {
					ms = append(ms, bt)
				}
			}
		}
		return ms
	}

	const rounds = 120
	var removals, nodeAdds int
	for round := 0; round < rounds; round++ {
		for _, m := range halves() {
			if rng.Intn(2) == 0 {
				m.TransposeCached()
			}
		}
		var mreq MutationRequest
		if rng.Intn(6) == 0 {
			name := fmt.Sprintf("x%d", round)
			typ := []string{"paper", "author"}[rng.Intn(2)]
			mreq.AddNodes = append(mreq.AddNodes, NodeSpec{Name: name, Type: typ})
			nodes = append(nodes, name)
			nodeAdds++
		}
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			if rng.Intn(5) < 3 || len(present) == 0 {
				e := EdgeSpec{
					From:  nodes[rng.Intn(len(nodes))],
					Label: labels[rng.Intn(len(labels))],
					To:    nodes[rng.Intn(len(nodes))],
				}
				mreq.Add = append(mreq.Add, e)
				present = append(present, e)
			} else {
				j := rng.Intn(len(present))
				mreq.Remove = append(mreq.Remove, present[j])
				present = append(present[:j], present[j+1:]...)
				removals++
			}
		}

		if code, body := doJSON(t, maintained, "/graph/edges", mreq); code != http.StatusOK {
			t.Fatalf("round %d: mutation status %d (%s)", round, code, body)
		}
		for _, m := range halves() {
			if !m.TransposeCached().Equal(m.Transpose()) {
				t.Fatalf("round %d: a maintained half keeps a transpose that is not its Transpose", round)
			}
		}

		pin := maintained.Store().Pin()
		coldStore := store.New(nil)
		if err := coldStore.Reset(pin.Snapshot(), pin.Version()); err != nil {
			t.Fatalf("round %d: reset cold store: %v", round, err)
		}
		cold := New(coldStore, maintained.schema)

		req := randWorkload(rng)
		for _, q := range req.Queries {
			served = append(served, rre.MustParse(q.Pattern))
		}
		codeM, bodyM := doJSON(t, maintained, "/batch", req)
		codeC, bodyC := doJSON(t, cold, "/batch", req)
		pin.Release()
		if codeM != http.StatusOK || codeC != http.StatusOK {
			t.Fatalf("round %d: batch status maintained=%d cold=%d", round, codeM, codeC)
		}
		if !bytes.Equal(bodyM, bodyC) {
			t.Fatalf("round %d: maintained server diverges from a cold recompute at version %d\nrequest: %+v\nmaintained: %s\ncold:       %s",
				round, pin.Version(), req, bodyM, bodyC)
		}
	}

	if removals == 0 || nodeAdds == 0 {
		t.Fatalf("weak interleaving: %d removals, %d node additions", removals, nodeAdds)
	}
	ds := maintained.Stats().Delta
	if ds.Commits != rounds {
		t.Errorf("maintained server ran delta on %d commits, want %d", ds.Commits, rounds)
	}
	if ds.Maintained == 0 {
		t.Error("maintained server never patched a cached pattern forward")
	}
}

// TestDeltaMaintenanceConsistentUnderConcurrentWrites (run under -race)
// hammers the maintained cache from both sides at once: writers flip
// edges and occasionally add nodes while /batch readers assert MVCC
// consistency — every result in a batch carries the batch's single
// pinned version and exact duplicate queries agree. Maintenance runs on
// the writer's goroutine against the same cache the readers hit, so
// this is where a locking mistake in Cache.Commit would surface.
func TestDeltaMaintenanceConsistentUnderConcurrentWrites(t *testing.T) {
	_, ts := newTestServer(t)
	const rounds = 20

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var mut MutationResponse
			add := MutationRequest{Add: []EdgeSpec{{From: "p3", Label: "by", To: "a1"}}}
			post(t, ts, "/graph/edges", add, &mut)
			post(t, ts, "/graph/edges", MutationRequest{Remove: add.Add}, &mut)
			if i%8 == 0 {
				post(t, ts, "/graph/edges", MutationRequest{
					AddNodes: []NodeSpec{{Name: fmt.Sprintf("w%d", i), Type: "paper"}},
				}, &mut)
			}
		}
	}()

	q := SearchRequest{Pattern: "by.by- + cites", Query: "p1", Type: "paper"}
	req := BatchRequest{Workers: 4, Queries: []SearchRequest{q, q, q, q}}
	for round := 0; round < rounds; round++ {
		var resp BatchResponse
		if code := post(t, ts, "/batch", req, &resp); code != http.StatusOK {
			t.Fatalf("round %d: status %d", round, code)
		}
		for i, res := range resp.Results {
			if res.Error != "" {
				t.Fatalf("round %d result %d: %s", round, i, res.Error)
			}
			if res.Version != resp.Version {
				t.Fatalf("round %d result %d: version %d != batch version %d",
					round, i, res.Version, resp.Version)
			}
			if !reflect.DeepEqual(res.Results, resp.Results[0].Results) {
				t.Fatalf("round %d: duplicate query %d disagrees:\n%+v\n%+v",
					round, i, res.Results, resp.Results[0].Results)
			}
		}
	}
	close(stop)
	wg.Wait()
}
