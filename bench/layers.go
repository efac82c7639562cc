package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"relsim/internal/datasets"
	"relsim/internal/eval"
	"relsim/internal/graph"
	"relsim/internal/pattern"
	"relsim/internal/rre"
	"relsim/internal/server"
	"relsim/internal/sim"
	"relsim/internal/sparse"
	"relsim/internal/store"
	"relsim/internal/wal"
)

// replayLayers derives the P metrics: each times one layer's public
// function in this process, on the inputs the workload generates, under
// a span named after the call. They say what a layer costs on its own;
// the H and S metrics say how often the server entered it.
func replayLayers(out *outcome, rec *recorder, e *env, w *workload, seed uint64, traced []tracedOp) error {
	ds, err := datasets.ByName("dblp")
	if err != nil {
		return err
	}
	headline := rre.MustParse(headlinePattern)

	// rre and pattern: parse, canonicalize, Algorithm-1 expansion.
	var generateMS []float64
	var expanded []*rre.Pattern
	for i := 0; i < 5; i++ {
		d := rec.time("pattern.Generate", func() {
			expanded, err = pattern.Generate(ds.Schema, headline, pattern.Default())
		})
		if err != nil {
			return err
		}
		generateMS = append(generateMS, ms(d))
	}
	out.set("pattern.generate_ms", median(generateMS), "ms")
	out.set("pattern.expanded_count", float64(len(expanded)), "count")

	texts := []string{headlinePattern}
	for _, s := range sidePool {
		texts = append(texts, s.render(false))
	}
	for _, p := range expanded {
		texts = append(texts, p.String())
	}
	parsed := make([]*rre.Pattern, len(texts))
	const parseReps = 100
	d := rec.time("rre.Parse", func() {
		for r := 0; r < parseReps; r++ {
			for i, t := range texts {
				parsed[i] = rre.MustParse(t)
			}
		}
	})
	out.set("rre.parse_us_per_pattern", us(d)/float64(parseReps*len(texts)), "us")
	d = rec.time("rre.Canonical", func() {
		for r := 0; r < parseReps; r++ {
			for _, p := range parsed {
				rre.Canonical(p)
			}
		}
	})
	out.set("rre.canonical_us_per_pattern", us(d)/float64(parseReps*len(texts)), "us")

	// eval: cold materialization of every pool member on an empty cache,
	// configured as the server configures its evaluators. The headline
	// run also captures every product's operands for the sparse replay.
	snap := ds.Graph.Snapshot()
	pool := [][]*rre.Pattern{expanded}
	for _, s := range sidePool {
		ps, err := scoredPatterns(ds.Schema, s.render(false))
		if err != nil {
			return err
		}
		pool = append(pool, ps)
	}
	type operands struct{ a, b *sparse.Matrix }
	var (
		pairs  []operands
		pairMu sync.Mutex
		coldMS []float64
		warmEv *eval.Evaluator
	)
	for i, ps := range pool {
		ev := eval.NewVersioned(snap, 0, eval.NewCache())
		ev.SetCanonicalKeys(true)
		if i == 0 {
			ev.SetMulHook(func(a, b *sparse.Matrix) {
				pairMu.Lock()
				pairs = append(pairs, operands{a, b})
				pairMu.Unlock()
			})
			warmEv = ev
		}
		d := rec.time("eval.Evaluator.Commuting(cold)", func() { ev.Materialize(ps...) })
		coldMS = append(coldMS, ms(d))
	}
	out.set("eval.cold_headline_ms", coldMS[0], "ms")
	out.set("eval.cold_commuting_ms_p50", median(coldMS), "ms")
	warmEv.SetMulHook(nil)

	const lookups = 200000
	d = rec.time("eval.Evaluator.Commuting(cached)", func() {
		for i := 0; i < lookups; i++ {
			warmEv.Commuting(expanded[i%len(expanded)])
		}
	})
	out.set("eval.cache_lookup_ns", float64(d)/lookups, "ns")

	// sparse: the captured products replayed through Matrix.Mul, with
	// the multiply-adds counted from the CSR operands: one per pair of an
	// entry (i,k) of A and an entry of row k of B.
	gate := sparse.DefaultThresholds()
	var madds, resultNNZ, parallel float64
	var mulTime time.Duration
	for _, pr := range pairs {
		rowNNZ := pr.b.Boolean().RowSums()
		pr.a.Each(func(_, col int, _ int64) { madds += float64(rowNNZ[col]) })
		if pr.a.Dim() >= gate.MinDim && pr.a.NNZ()+pr.b.NNZ() >= gate.MinNNZ {
			parallel++
		}
		var m *sparse.Matrix
		mulTime += rec.time("sparse.Matrix.Mul", func() { m = pr.a.Mul(pr.b) })
		resultNNZ += float64(m.NNZ())
	}
	n := float64(len(pairs))
	out.set("sparse.mul_ns_per_madd", ratio(float64(mulTime), madds), "ns")
	// Derived: the products the server performed per op (an S count)
	// times the mean multiply-adds of a headline product (a P count).
	out.set("sparse.madds_per_op", out.metrics["eval.products_per_op"].Value*ratio(madds, n), "count")
	out.set("sparse.result_nnz_per_product", ratio(resultNNZ, n), "count")
	out.set("sparse.parallel_share", ratio(parallel, n), "ratio")

	// sim: scoring on the warm evaluator.
	procs := snap.NodesOfType("proc")
	rng := rand.New(rand.NewPCG(seed, 1<<34))
	const scored = 100
	d = rec.time("sim.RelSimAggregate+TopK", func() {
		for i := 0; i < scored; i++ {
			sim.RelSimAggregate(warmEv, expanded, procs[rng.IntN(len(procs))], procs).TopK(10)
		}
	})
	out.set("sim.score_us_per_query", us(d)/scored, "us")
	out.set("sim.candidates_per_query", float64(len(procs)), "count")

	// eval planning: one generated 64-query batch, folded as /batch does.
	batchW := *w
	batchW.batch = true
	var batch server.BatchRequest
	if err := json.Unmarshal(newGenerator(&batchW, seed, 0).next().body, &batch); err != nil {
		return err
	}
	seen := map[string]bool{}
	var pats []*rre.Pattern
	for _, q := range batch.Queries {
		ps, err := scoredPatterns(ds.Schema, q.Pattern)
		if err != nil {
			return err
		}
		for _, p := range ps {
			if key := p.String(); !seen[key] {
				seen[key] = true
				pats = append(pats, p)
			}
		}
	}
	const plans = 50
	var plan *eval.WorkloadPlan
	d = rec.time("eval.PlanWorkload", func() {
		for i := 0; i < plans; i++ {
			plan = eval.PlanWorkload(pats)
		}
	})
	out.set("eval.plan_us_per_batch", us(d)/plans, "us")
	st := plan.Stats()
	out.set("eval.plan_dedup_ratio", ratio(float64(st.Deduped), float64(st.Deduped+st.Nodes)), "ratio")

	// server: encoding/json on the bodies the traced pass recorded.
	if err := jsonLayers(out, rec, traced); err != nil {
		return err
	}
	// graph, store, wal: the write path, one public call at a time.
	return writeLayers(out, rec, e, ds.Graph, snap, seed)
}

// jsonLayers times request decoding and response encoding on up to 200
// of the recorded bodies, into and out of the server's own types.
func jsonLayers(out *outcome, rec *recorder, traced []tracedOp) error {
	if len(traced) > 200 {
		traced = traced[:200]
	}
	responses := make([]any, len(traced))
	for i, t := range traced {
		_, responses[i] = wireTypes(t.op.kind)
		if err := json.Unmarshal(t.res.body, responses[i]); err != nil {
			return fmt.Errorf("decode recorded response %d: %w", i, err)
		}
	}
	const reps = 5
	var err error
	d := rec.time("server.decode(encoding/json)", func() {
		for r := 0; r < reps; r++ {
			for _, t := range traced {
				req, _ := wireTypes(t.op.kind)
				if e := json.Unmarshal(t.op.body, req); e != nil {
					err = e
				}
			}
		}
	})
	if err != nil {
		return err
	}
	out.set("server.decode_us_per_op", us(d)/float64(reps*len(traced)), "us")
	d = rec.time("server.encode(encoding/json)", func() {
		for r := 0; r < reps; r++ {
			for _, v := range responses {
				if _, e := json.Marshal(v); e != nil {
					err = e
				}
			}
		}
	})
	if err != nil {
		return err
	}
	out.set("server.encode_us_per_op", us(d)/float64(reps*len(traced)), "us")
	return nil
}

// wireTypes returns fresh values of the server's request and response
// types for one kind of op.
func wireTypes(kind opKind) (req, resp any) {
	switch kind {
	case opBatch:
		return new(server.BatchRequest), new(server.BatchResponse)
	case opMutate:
		return new(server.MutationRequest), new(server.MutationResponse)
	}
	return new(server.SearchRequest), new(server.SearchResponse)
}

// writeLayers times the write path bottom-up: snapshot build and COW
// builder commit in graph, in-memory commit and pin in store, append and
// fsync in wal, then checkpoint and recovery of a durable store.
func writeLayers(out *outcome, rec *recorder, e *env, g *graph.Graph, snap *graph.Snapshot, seed uint64) error {
	var builds []float64
	for i := 0; i < 3; i++ {
		builds = append(builds, ms(rec.time("graph.Graph.Snapshot", func() { g.Snapshot() })))
	}
	out.set("graph.snapshot_build_ms", median(builds), "ms")
	const commits = 20
	proc, author := snap.NodesOfType("proc")[0], snap.NodesOfType("author")[0]
	var err error
	d := rec.time("graph.Builder.Build", func() {
		for k := 0; k < commits && err == nil; k++ {
			b := graph.NewBuilder(snap)
			n := b.AddNode(fmt.Sprintf("benchpaper%d", k), "paper")
			if err = b.AddEdge(n, "p-in", proc); err == nil {
				err = b.AddEdge(author, "w", n)
			}
			b.Build()
		}
	})
	if err != nil {
		return err
	}
	out.set("graph.builder_commit_us", us(d)/commits, "us")

	mem := store.New(g)
	var commitMS []float64
	for k := 0; k < commits; k++ {
		d := rec.time("store.Store.Update", func() { err = applyMutation(mem, mutation(seed, k)) })
		if err != nil {
			return err
		}
		commitMS = append(commitMS, ms(d))
	}
	out.set("store.commit_ms_p50", median(commitMS), "ms")
	const pins = 100000
	d = rec.time("store.Store.Pin+Release", func() {
		for i := 0; i < pins; i++ {
			mem.Pin().Release()
		}
	})
	out.set("store.pin_ns", float64(d)/pins, "ns")

	var dir string
	dir, err = scratchDir(e.outDir, "layers-")
	if err != nil {
		return err
	}
	defer removeScratch(dir)

	// wal: a realistic record is one committed batch, JSON-encoded.
	payload := mustJSON([]store.Update{
		{Version: 1, Op: store.OpAddNode, Node: 19404, Name: "benchpaper0", Type: "paper"},
		{Version: 2, Op: store.OpAddEdge, Edge: graph.Edge{From: 19404, Label: "p-in", To: 60}},
		{Version: 3, Op: store.OpAddEdge, Edge: graph.Edge{From: 500, Label: "w", To: 19404}},
	})
	appendUS, err := timeAppends(rec, dir+"/wal-never", wal.SyncNever, 500, payload, "wal.Log.Append(fsync never)")
	if err != nil {
		return err
	}
	out.set("wal.append_us", 1000*mean(appendUS), "us")
	fsyncMS, err := timeAppends(rec, dir+"/wal-always", wal.SyncAlways, 20, payload, "wal.Log.Append(fsync always)")
	if err != nil {
		return err
	}
	out.set("wal.fsync_ms_p50", median(fsyncMS), "ms")

	// store durability: half the commits, a checkpoint, the other half,
	// then recovery of checkpoint + WAL tail, as a restarted server does.
	opts := []store.OpenOption{store.WithSync(wal.SyncNever), store.WithCheckpointEvery(0)}
	dur, err := store.Open(dir+"/store", append(opts, store.WithSeed(g))...)
	if err != nil {
		return err
	}
	for k := 0; k < preloadCommits; k++ {
		if k == preloadCommits/2 {
			d := rec.time("store.Store.Checkpoint", func() { err = dur.Checkpoint() })
			if err != nil {
				dur.Close()
				return err
			}
			out.set("store.checkpoint_ms", ms(d), "ms")
		}
		if err := applyMutation(dur, mutation(seed, k)); err != nil {
			dur.Close()
			return err
		}
	}
	want := dur.Version()
	if err := dur.Close(); err != nil {
		return err
	}
	d = rec.time("store.Open(recover)", func() { dur, err = store.Open(dir+"/store", opts...) })
	if err != nil {
		return err
	}
	defer dur.Close()
	if got := dur.Version(); got != want {
		return fmt.Errorf("in-process recovery reached version %d, want %d", got, want)
	}
	out.set("store.recover_s", d.Seconds(), "s")
	return nil
}

// timeAppends appends n records to a fresh log under the given fsync
// policy and returns each append's duration in milliseconds.
func timeAppends(rec *recorder, dir string, policy wal.SyncPolicy, n int, payload []byte, spanName string) ([]float64, error) {
	l, err := wal.Open(dir, wal.Options{Sync: policy})
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, n)
	for seq := 1; seq <= n; seq++ {
		d := rec.time(spanName, func() { err = l.Append(uint64(seq), payload) })
		if err != nil {
			l.Close()
			return nil, err
		}
		out = append(out, ms(d))
	}
	sort.Float64s(out)
	return out, l.Close()
}

// applyMutation commits one generated mutation through Store.Update,
// in the order the server's handler applies it: nodes, adds, removes.
func applyMutation(st *store.Store, m server.MutationRequest) error {
	return st.Update(func(tx *store.Tx) error {
		for _, ns := range m.AddNodes {
			tx.AddNode(ns.Name, ns.Type)
		}
		for _, es := range m.Add {
			u, v, err := endpoints(tx, es)
			if err != nil {
				return err
			}
			if err := tx.AddEdge(u, es.Label, v); err != nil {
				return err
			}
		}
		for _, es := range m.Remove {
			u, v, err := endpoints(tx, es)
			if err != nil {
				return err
			}
			if err := tx.RemoveEdge(u, es.Label, v); err != nil {
				return err
			}
		}
		return nil
	})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
