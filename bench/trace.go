package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// span is one timed interval of the traced run. The spans of one
// request share Op; a layer replay has Op -1.
type span struct {
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Parent  int     `json:"parent"` // index into the span list, -1 for a root
	Op      int     `json:"op"`
}

// recorder keeps spans in memory; they are written out once, when the
// benchmark ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) add(name string, start, end time.Time, parent, op int) int {
	r.spans = append(r.spans, span{
		Name:    name,
		StartUS: float64(start.Sub(r.t0)) / float64(time.Microsecond),
		EndUS:   float64(end.Sub(r.t0)) / float64(time.Microsecond),
		Parent:  parent,
		Op:      op,
	})
	return len(r.spans) - 1
}

// time runs fn under a root span named after the layer function it
// calls, and returns how long it took.
func (r *recorder) time(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add(name, start, end, -1, -1)
	return end.Sub(start)
}

// traceDoc is one workload's entry in bench/out/trace.json.
type traceDoc struct {
	Seed   uint64            `json:"seed"`
	Ops    int               `json:"ops"`
	Spans  []span            `json:"spans"`
	Layers map[string]metric `json:"layers"`
}

// tracedOp is one replayed request with what came back.
type tracedOp struct {
	op     op
	res    result
	phases map[string]float64 // Server-Timing, ms
}

// replay sends n ops of the workload's sequence on one connection. With
// one client and no timers the server's counters over the pass repeat
// exactly from run to run. With a recorder each op leaves a client span
// and, as its children, the server's Server-Timing phases.
func (s *session) replay(gen *generator, n int, rec *recorder) ([]tracedOp, error) {
	ops := make([]tracedOp, 0, n)
	for i := 0; i < n; i++ {
		o := gen.next()
		res := s.c.do("POST", o.path, o.body)
		if o.kind == opMutate {
			if err := s.ack(res); err != nil {
				return nil, fmt.Errorf("commit %d lost: %w", len(s.acks), err)
			}
		}
		t := tracedOp{op: o, res: res}
		if rec != nil {
			phases, err := parseServerTiming(res.timing)
			if err != nil {
				return nil, err
			}
			t.phases = phases
			end := res.start.Add(res.latency)
			parent := rec.add("client."+o.path, res.start, end, -1, i)
			// The header gives durations, not offsets: the server's total is
			// centred in the client's interval and the phases laid end to end
			// from its start, in the order the server ran them.
			total := time.Duration(phases["total"] * float64(time.Millisecond))
			at := res.start.Add((res.latency - total) / 2)
			srv := rec.add("server.total", at, at.Add(total), parent, i)
			for _, name := range phaseOrder {
				if ms, ok := phases[name]; ok {
					d := time.Duration(ms * float64(time.Millisecond))
					rec.add("server."+name, at, at.Add(d), srv, i)
					at = at.Add(d)
				}
			}
		}
		ops = append(ops, t)
	}
	return ops, nil
}

var phaseOrder = []string{"expand", "plan", "materialize", "score"}

// traceWorkload is the separate traced run that yields the per-layer
// numbers: an untraced and a traced pass of the same op count against
// one fresh server (their medians give the tracing overhead), the
// server's counter deltas across the traced pass, and the in-process
// layer replays of layers.go.
func traceWorkload(e *env, w *workload, seed uint64, seconds float64) (*outcome, *traceDoc, error) {
	s, err := newSession(e, w, seed)
	if err != nil {
		return nil, nil, err
	}
	defer s.close()
	if _, err := s.start(true); err != nil {
		return nil, nil, err
	}

	n := int(math.Ceil(w.traceOpsPerSecond * seconds))
	gen := newGenerator(w, seed, 0)
	plain, err := s.replay(gen, n, nil)
	if err != nil {
		return nil, nil, err
	}
	before, err := s.c.scrape()
	if err != nil {
		return nil, nil, err
	}
	rec := &recorder{t0: time.Now()}
	traced, err := s.replay(gen, n, rec)
	if err != nil {
		return nil, nil, err
	}
	after, err := s.c.scrape()
	if err != nil {
		return nil, nil, err
	}
	s.stop()

	var sampled []kept
	for i, t := range traced {
		s.out.attempted++
		if !t.res.ok(t.op.kind) {
			s.out.fail("traced op %d: status %d: %v", i, t.res.status, t.res.err)
		} else if t.op.kind != opMutate && i%sampleEvery == 0 {
			sampled = append(sampled, kept{op: t.op, body: t.res.body})
		}
	}
	if err := s.verify(sampled); err != nil {
		return nil, nil, err
	}

	headerLayers(s.out, traced)
	counterLayers(s.out, traced, before, after)
	clientLayers(s.out, plain, traced)
	if err := replayLayers(s.out, rec, e, w, seed, traced); err != nil {
		return nil, nil, err
	}
	doc := &traceDoc{Seed: seed, Ops: n, Spans: rec.spans, Layers: s.out.metrics}
	return s.out, doc, nil
}

func readLatencies(ops []tracedOp, kind func(opKind) bool) []time.Duration {
	var ds []time.Duration
	for _, t := range ops {
		if kind(t.op.kind) && t.res.ok(t.op.kind) {
			ds = append(ds, t.res.latency)
		}
	}
	return ds
}

func isRead(k opKind) bool  { return k != opMutate }
func isWrite(k opKind) bool { return k == opMutate }

// headerLayers derives the H metrics: what the Server-Timing header
// says about each read, against what the client saw.
func headerLayers(out *outcome, traced []tracedOp) {
	var overhead, bytes []float64
	phases := map[string][]float64{}
	for _, t := range traced {
		if t.op.kind == opMutate || !t.res.ok(t.op.kind) {
			continue
		}
		ms := float64(t.res.latency) / float64(time.Millisecond)
		overhead = append(overhead, ms-t.phases["total"])
		bytes = append(bytes, float64(len(t.res.body)))
		for _, name := range phaseOrder {
			phases[name] = append(phases[name], t.phases[name])
		}
	}
	out.set("server.overhead_ms_p50", median(overhead), "ms")
	out.set("server.response_bytes_per_op", mean(bytes), "B")
	for _, name := range phaseOrder {
		out.set("server.phase_"+name+"_ms_p50", median(phases[name]), "ms")
	}
}

// counterLayers derives the S metrics: deltas of the server's own
// /stats and /metrics counters across the traced pass.
func counterLayers(out *outcome, traced []tracedOp, before, after scrape) {
	ops := float64(len(traced))
	commits, userBytes := 0.0, 0.0
	for _, t := range traced {
		if t.op.kind == opMutate {
			commits++
			userBytes += float64(len(t.op.body))
		}
	}
	a, b := before.counters(), after.counters()
	d := func(name string) float64 { return b[name] - a[name] }

	out.set("eval.cache_hit_ratio", ratio(d("cache.hits"), d("cache.hits")+d("cache.misses")), "ratio")
	out.set("eval.evictions_per_op", d("cache.evictions")/ops, "count")
	out.set("eval.cache_entries_end", b["cache.size"], "count")
	out.set("eval.products_per_op", d("workload.products")/ops, "count")
	out.set("eval.products_saved_per_batch", ratio(d("workload.saved"), d("workload.batches")), "count")
	out.set("pattern.memo_hit_ratio", ratio(d("memo.hits"), d("memo.hits")+d("memo.misses")), "ratio")

	out.set("eval.maintain_ms_per_commit", ratio(1000*d("delta.seconds"), commits), "ms")
	out.set("eval.maintained_per_commit", ratio(d("delta.maintained"), commits), "count")
	out.set("eval.fallbacks_per_commit", ratio(d("delta.fallbacks"), commits), "count")
	out.set("eval.delta_products_per_commit", ratio(d("delta.products"), commits), "count")

	out.set("store.commit_server_ms", 1000*ratio(d("relsim_store_commit_seconds_sum"), d("relsim_store_commit_seconds_count")), "ms")
	out.set("store.checkpoints", d("checkpoints"), "count")
	out.set("wal.fsyncs_per_commit", ratio(d("wal.fsyncs"), commits), "count")
	out.set("wal.bytes_per_commit", ratio(d("relsim_wal_appended_bytes_total"), commits), "B")
	out.set("wal.bytes_per_user_byte", ratio(d("relsim_wal_appended_bytes_total"), userBytes), "ratio")
}

// clientLayers reports what only the client sees: tail latencies at the
// highest percentile the sample supports, the acknowledged-write
// median, and what tracing itself cost.
func clientLayers(out *outcome, plain, traced []tracedOp) {
	reads := sortedMS(readLatencies(traced, isRead))
	level, v := tailPercentile(reads)
	out.set("client.read_tail_ms", v, "ms")
	out.set("client.read_tail_pct", level, "%")
	writes := sortedMS(readLatencies(traced, isWrite))
	level, v = tailPercentile(writes)
	out.set("client.write_tail_ms", v, "ms")
	out.set("client.write_tail_pct", level, "%")
	out.set("store.ack_p50_ms", percentile(writes, 50), "ms")
	base := percentile(sortedMS(readLatencies(plain, isRead)), 50)
	out.set("client.trace_overhead_pct", 100*ratio(percentile(reads, 50)-base, base), "%")
}

// sortedNames lists a metric map's keys in a stable order for printing.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
