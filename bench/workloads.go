package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"relsim/internal/server"
)

// Everything that shapes the load is fixed here, not in flags or
// environment variables: later PRs are judged by these numbers, so two
// runs of the benchmark must mean the same thing.

// headlinePattern is the paper's DBLP proceedings query. With the
// default alg ("search") the server expands it by Algorithm 1 into 49
// patterns over 63 cached matrices, about 190 products when cold.
const headlinePattern = "p-in-.r-a.r-a-.p-in"

// sidePattern is one member of the rotating side pool. A pattern with a
// disjunction is held as pre + "(" + alts[0] + " + " + alts[1] + ")" +
// post so /batch can permute the branches per occurrence; the others
// keep everything in pre.
type sidePattern struct {
	pre, post string
	alts      [2]string
	typ       string // type of the query node and of the candidates
}

func (s sidePattern) render(swap bool) string {
	if s.alts[0] == "" {
		return s.pre
	}
	a, b := s.alts[0], s.alts[1]
	if swap {
		a, b = b, a
	}
	return s.pre + "(" + a + " + " + b + ")" + s.post
}

// sidePool is the every-third-read rotation. No pattern may route
// author or paper through area: w.r-a.r-a-.w- runs past the server's
// 30 s timeout and r-a.r-a- is 15 s cold; the pool guard in the warm
// pass catches such an edit.
var sidePool = []sidePattern{
	{pre: "p-in-.w-.w.p-in", typ: "proc"},
	{pre: "w.w-", typ: "author"},
	{pre: "w.p-in.p-in-.w-", typ: "author"},
	{pre: "p-in.p-in-", typ: "paper"},
	{pre: "w-.w", typ: "paper"},
	{pre: "w.w-.w.w-", typ: "author"},
	{pre: "w-.w.w-.w", typ: "paper"},
	{pre: "w.", alts: [2]string{"p-in.p-in-", "w-.w"}, post: ".w-", typ: "author"},
	{alts: [2]string{"p-in.p-in-", "w-.w"}, typ: "paper"},
	{pre: "p-in-.", alts: [2]string{"w-.w", "p-in.p-in-"}, post: ".p-in", typ: "proc"},
}

// nodeRange is how many nodes of each type the generator draws query
// nodes from: proc0..399, author0..8999, paper0..8999 all exist in the
// FullDBLP instance (19,404 nodes, 55,488 edges).
var nodeRange = map[string]int{"proc": 400, "author": 9000, "paper": 9000}

const (
	batchSize      = 64 // queries per /batch
	mutateEvery    = 10 // on connection 0 of a writing workload, every 10th op mutates
	preloadCommits = 8  // mutations launch 0 applies, so timed launches recover checkpoint + WAL
	checkpointGap  = 16 // -checkpoint-every, in versions
)

// workload is one traffic mix against one server configuration.
type workload struct {
	name  string
	why   string
	flags []string // relsim-serve flags beyond -dataset dblp -addr
	conns int      // closed-loop connections, at most nproc (2)
	batch bool     // reads are /batch of batchSize, branches permuted
	write bool     // durable store; every mutateEvery-th op of connection 0 mutates
	// traceOpsPerSecond sizes the traced replay: ops = rate × -seconds,
	// a fixed count so the server's own counters repeat exactly.
	traceOpsPerSecond float64
}

var workloads = []workload{
	{
		name: "search_full_warm",
		// sim scoring, eval cache lookup and server overhead do all the
		// work; sparse does none. The bypass workload for any kernel
		// change: the prediction there is "no move".
		why:               "cache unbounded and warmed: scoring, cache lookup and HTTP overhead only, no products; a kernel change must not move it",
		conns:             2,
		traceOpsPerSecond: 100,
	},
	{
		name: "search_full_cold",
		// The cache holds 32 matrices and one headline query needs 63, so
		// every headline read re-materializes its ≈ 190 products: sparse and
		// eval planning are nearly all of the time. The workload a kernel or
		// chain-planning change must move.
		//
		// 32, not the 8 the issue asked for. Products per read are flat
		// from 24 to 40 (and only 10 % fewer than at 8), but at 8 the
		// label matrices themselves are evicted and rebuilt inside every
		// read: twice the latency (470 against 240 ms), 32 k page faults
		// and 66 garbage collections per read on a 20 MB heap, a quarter of
		// the CPU time in the kernel. That measured the guest's page-fault
		// path and the scheduling of the collector's second thread, not
		// the program, and the driver saw it spread by 25 % between runs
		// of the same code. See README.md.
		why:               "cache of 32 matrices against a 63-matrix working set: every headline read re-materializes its products, so SpGEMM and chain planning dominate",
		flags:             []string{"-cache-limit", "32"},
		conns:             1,
		traceOpsPerSecond: 2,
	},
	{
		name: "batch_full_warm",
		// The same eval and sim layers used differently: PlanWorkload and
		// rre canonicalization, one shared pin, the worker pool, a 37 KB
		// response encode.
		why:               "64-query /batch on a warm cache: workload planning, canonicalization, the worker pool and a large response encode",
		conns:             1,
		batch:             true,
		traceOpsPerSecond: 4,
	},
	{
		name: "mixed_full_durable",
		// Writes beside reads on one cache: store COW commit, WAL append
		// and fsync, checkpoints, and delta maintenance patching the 74
		// cached matrices on every commit. A read gain bought with write
		// cost (or the reverse) shows here and nowhere else.
		//
		// One connection, not the two the issue asked for: with a second,
		// read-only connection every read that arrives during a commit's
		// 0.5 s of maintenance recomputes cold at the new version and
		// competes with it for the two cores, and the run-to-run spread of
		// throughput, CPU and read latency was 9–16 % against 5–6 % for
		// this alternating form (eight interleaved pairs). See README.md.
		why:               "every 10th op commits to a durable store, the rest read: COW commit, WAL fsync, checkpoints and delta maintenance of the warm cache",
		flags:             []string{"-fsync", "always", "-checkpoint-every", fmt.Sprint(checkpointGap)},
		conns:             1,
		write:             true,
		traceOpsPerSecond: 8,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

type opKind int

const (
	opSearch opKind = iota
	opBatch
	opMutate
)

// op is one generated request.
type op struct {
	kind    opKind
	path    string
	body    []byte
	queries int // queries a 200 answers: 1, batchSize, or 0 for a mutation
}

// generator yields one connection's request sequence. It is a pure
// function of (workload, seed, connection): the same inputs give
// byte-identical bodies, and the server receives nothing else.
type generator struct {
	w       *workload
	seed    uint64
	conn    int
	rng     *rand.Rand
	ops     int // ops issued
	reads   int // read-rule counter
	commits int // mutations issued, preload included
}

func newGenerator(w *workload, seed uint64, conn int) *generator {
	g := &generator{w: w, seed: seed, conn: conn, rng: rand.New(rand.NewPCG(seed, uint64(conn)))}
	if w.write {
		g.commits = preloadCommits
	}
	return g
}

// read draws one query by the read rule: two of every three reads are
// the headline query on a uniform proc, every third rotates through the
// side pool. The 2:1 weighting keeps the median inside one cost class;
// an equal-weight pool put it on the boundary between two.
func (g *generator) read() server.SearchRequest {
	i := g.reads
	g.reads++
	if i%3 != 2 {
		return server.SearchRequest{
			Pattern: headlinePattern,
			Query:   fmt.Sprintf("proc%d", g.rng.IntN(nodeRange["proc"])),
			Type:    "proc",
			Top:     10,
		}
	}
	s := sidePool[(i/3)%len(sidePool)]
	swap := g.w.batch && s.alts[0] != "" && g.rng.IntN(2) == 1
	return server.SearchRequest{
		Pattern: s.render(swap),
		Query:   fmt.Sprintf("%s%d", s.typ, g.rng.IntN(nodeRange[s.typ])),
		Type:    s.typ,
		Top:     10,
	}
}

func (g *generator) next() op {
	i := g.ops
	g.ops++
	switch {
	case g.w.write && g.conn == 0 && i%mutateEvery == mutateEvery-1:
		k := g.commits
		g.commits++
		return op{kind: opMutate, path: "/graph/edges", body: mustJSON(mutation(g.seed, k))}
	case g.w.batch:
		req := server.BatchRequest{Queries: make([]server.SearchRequest, batchSize)}
		for j := range req.Queries {
			req.Queries[j] = g.read()
		}
		return op{kind: opBatch, path: "/batch", body: mustJSON(req), queries: batchSize}
	}
	return op{kind: opSearch, path: "/search", body: mustJSON(g.read()), queries: 1}
}

// mutation is write k of a run, a pure function of (seed, k) so the
// oracle can rebuild any graph state: it adds node benchpaper<k>, an
// edge benchpaper<k> -p-in-> proc<r> and an edge author<a> -w->
// benchpaper<k>, and removes the w edge that mutation k-2 added (which
// exercises the subtractive delta path). Sub-patterns over r-a alone
// stay untouched.
func mutation(seed uint64, k int) server.MutationRequest {
	name := fmt.Sprintf("benchpaper%d", k)
	proc, author := mutationDraw(seed, k)
	m := server.MutationRequest{
		AddNodes: []server.NodeSpec{{Name: name, Type: "paper"}},
		Add: []server.EdgeSpec{
			{From: name, Label: "p-in", To: fmt.Sprintf("proc%d", proc)},
			{From: fmt.Sprintf("author%d", author), Label: "w", To: name},
		},
	}
	if k >= 2 {
		_, old := mutationDraw(seed, k-2)
		m.Remove = []server.EdgeSpec{{From: fmt.Sprintf("author%d", old), Label: "w", To: fmt.Sprintf("benchpaper%d", k-2)}}
	}
	return m
}

func mutationDraw(seed uint64, k int) (proc, author int) {
	r := rand.New(rand.NewPCG(seed, 1<<32+uint64(k)))
	return r.IntN(nodeRange["proc"]), r.IntN(nodeRange["author"])
}

// warmPass is the set-up request list: the headline query and every
// side pattern once, on seeded query nodes. It materializes the whole
// pool, every answer is checked against the oracle, and it doubles as
// the pool guard.
func warmPass(seed uint64) []server.SearchRequest {
	rng := rand.New(rand.NewPCG(seed, 1<<33))
	reqs := []server.SearchRequest{{
		Pattern: headlinePattern,
		Query:   fmt.Sprintf("proc%d", rng.IntN(nodeRange["proc"])),
		Type:    "proc",
		Top:     10,
	}}
	for _, s := range sidePool {
		reqs = append(reqs, server.SearchRequest{
			Pattern: s.render(false),
			Query:   fmt.Sprintf("%s%d", s.typ, rng.IntN(nodeRange[s.typ])),
			Type:    s.typ,
			Top:     10,
		})
	}
	return reqs
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs of strings and ints always marshal
	}
	return b
}
