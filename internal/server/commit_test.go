package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"testing"
	"time"

	"relsim/internal/graph"
	"relsim/internal/store"
)

// resetGraph is testGraph with its authorship moved: p1 now shares its
// authors with p3 alone, so by.by- from p1 ranks p3 where testGraph
// ranks p2 and p4.
func resetGraph() *graph.Graph {
	g := graph.New()
	p1 := g.AddNode("p1", "paper")
	p2 := g.AddNode("p2", "paper")
	p3 := g.AddNode("p3", "paper")
	p4 := g.AddNode("p4", "paper")
	a1 := g.AddNode("a1", "author")
	a2 := g.AddNode("a2", "author")
	a3 := g.AddNode("a3", "author")
	g.AddEdge(p1, "by", a1)
	g.AddEdge(p1, "by", a2)
	g.AddEdge(p3, "by", a1)
	g.AddEdge(p3, "by", a2)
	g.AddEdge(p2, "by", a3)
	g.AddEdge(p4, "by", a3)
	g.AddEdge(p1, "cites", p3)
	return g
}

// TestResetDropsCachedAnswers: a store Reset onto a different graph,
// forward or at the version the store already holds, leaves no answer
// of the old graph in the cache: a warm server answers byte for byte
// like a cold one over the new graph at the same version.
func TestResetDropsCachedAnswers(t *testing.T) {
	q := SearchRequest{Pattern: "by.by-", Query: "p1", Type: "paper"}
	search := func(srv *Server) []byte {
		t.Helper()
		code, body := doJSON(t, srv, "/search", q)
		if code != http.StatusOK {
			t.Fatalf("/search: %d %s", code, body)
		}
		return body
	}
	for _, tc := range []struct {
		name  string
		ahead uint64
	}{{"forward", 3}, {"same version", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			st := store.New(testGraph())
			if err := st.AddEdge(0, "cites", 1); err != nil {
				t.Fatal(err)
			}
			warm := New(st, nil)
			search(warm)
			v := st.Version() + tc.ahead
			if err := st.Reset(resetGraph().Snapshot(), v); err != nil {
				t.Fatal(err)
			}
			coldSt := store.New(nil)
			if err := coldSt.Reset(resetGraph().Snapshot(), v); err != nil {
				t.Fatal(err)
			}
			if got, want := search(warm), search(New(coldSt, nil)); !bytes.Equal(got, want) {
				t.Fatalf("after a Reset to v%d the warm server answers\n%s\na cold one\n%s", v, got, want)
			}
		})
	}
}

// TestConcurrentCommitsMaintainEveryVersion: two goroutines commit
// through one server while readers /batch at the versions they pin.
// Every commit goes through the cache once (Delta.Commits), and every
// batch answers byte for byte what a cold server answers at its
// version, rebuilt from the update log.
func TestConcurrentCommitsMaintainEveryVersion(t *testing.T) {
	st := store.New(testGraph())
	srv := New(st, nil)
	req := BatchRequest{Workers: 2, Queries: []SearchRequest{
		{Pattern: "by.by-", Query: "p1", Type: "paper"},
		{Pattern: "by.by- + cites", Query: "p1", Type: "paper"},
		{Pattern: "cites.by", Query: "p1", Type: "author", NoExpand: true},
	}}

	const writers, commits = 2, 12
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each writer touches only the papers it added: a node with
			// its edges, another author on it, then its cites edge out
			// again.
			name := func(i int) string { return fmt.Sprintf("w%d-%d", w, i-i%3) }
			for i := 0; i < commits; i++ {
				var m MutationRequest
				switch i % 3 {
				case 0:
					m.AddNodes = []NodeSpec{{Name: name(i), Type: "paper"}}
					m.Add = []EdgeSpec{{From: name(i), Label: "by", To: "a1"}, {From: name(i), Label: "cites", To: "p1"}}
				case 1:
					m.Add = []EdgeSpec{{From: name(i), Label: "by", To: fmt.Sprintf("a%d", 2+w)}}
				default:
					m.Remove = []EdgeSpec{{From: name(i), Label: "cites", To: "p1"}}
				}
				if code, body := doJSON(t, srv, "/graph/edges", m); code != http.StatusOK {
					t.Errorf("writer %d commit %d: %d %s", w, i, code, body)
					return
				}
				time.Sleep(time.Millisecond) // let reads land between commits
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	var mu sync.Mutex
	reads := map[uint64][]byte{}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for stop := false; !stop; {
				select {
				case <-done:
					stop = true // one last read at the final version
				default:
				}
				code, body := doJSON(t, srv, "/batch", req)
				var resp BatchResponse
				if code != http.StatusOK || json.Unmarshal(body, &resp) != nil {
					t.Errorf("/batch: %d %s", code, body)
					return
				}
				mu.Lock()
				if prev, ok := reads[resp.Version]; ok && !bytes.Equal(prev, body) {
					t.Errorf("two reads at v%d differ:\n%s\n%s", resp.Version, prev, body)
				}
				reads[resp.Version] = body
				mu.Unlock()
			}
		}()
	}
	readers.Wait()
	if t.Failed() {
		return
	}

	if got := srv.Stats().Delta.Commits; got != writers*commits {
		t.Errorf("Delta.Commits = %d, want the %d commits", got, writers*commits)
	}
	versions := make([]uint64, 0, len(reads))
	for v := range reads {
		versions = append(versions, v)
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
	replay := store.New(testGraph())
	log := st.Log(0)
	for _, v := range versions {
		for len(log) > 0 && log[0].Version <= v {
			u := log[0]
			if err := replay.Update(func(tx *store.Tx) error { return tx.Apply(u) }); err != nil {
				t.Fatal(err)
			}
			log = log[1:]
		}
		if code, want := doJSON(t, New(replay, nil), "/batch", req); code != http.StatusOK || !bytes.Equal(reads[v], want) {
			t.Fatalf("the read at v%d answers\n%s\na cold server\n%s", v, reads[v], want)
		}
	}
	if len(versions) < 2 {
		t.Fatalf("reads at %d versions, want reads between commits", len(versions))
	}
	t.Logf("%d commits, reads at %d versions", writers*commits, len(versions))
}
