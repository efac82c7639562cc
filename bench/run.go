package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"relsim/internal/server"
)

const (
	// poolGuard is the most a single warm-pass request may take. The
	// slowest pool member (the headline query, cold) is 0.3–0.5 s here,
	// but was once seen at 2.8 s when the shared host stalled; the
	// blow-ups the guard exists for (a pattern through area) are 15 s and
	// more. A tripped guard fails the whole run, so it sits well clear of
	// anything a busy box does to a healthy pool.
	poolGuard   = 10 * time.Second
	sampleEvery = 50 // one measured read in 50 is checked against the oracle
	// checkedVersions caps the distinct graph versions whose sampled
	// reads a writing workload verifies: each needs a cold in-process
	// recompute.
	checkedVersions = 3
)

// env is what every run of one invocation shares.
type env struct {
	root, bin, outDir string
}

// runConfig sizes one untraced run. Production values come from
// defaultRun; only the smoke test shrinks them.
type runConfig struct {
	timedLaunches int           // launches timed for setup_s, after one discarded
	warmup        time.Duration // load served and discarded before measuring
	measure       time.Duration
}

// defaultRun discards launch 0 and the first seconds of load: the first
// launch and the first requests after idle were 10–30 % slow on this
// box. setup_s is the median of the three timed launches; more launches
// would come out of the measured phase, which the time cap makes the
// scarcer of the two.
func defaultRun(measure time.Duration) runConfig {
	return runConfig{timedLaunches: 3, warmup: 2 * time.Second, measure: measure}
}

// outcome is one run's result: named metrics with units, and the
// attempt/failure tally the correctness verdict rests on.
type outcome struct {
	metrics   map[string]metric
	attempted int
	failed    int
	notes     []string // first few failure descriptions
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o *outcome) set(name string, v float64, unit string) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.notes) < 8 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

// session is one workload at one seed: the oracle, the warm-pass
// requests, the data directory of a writing workload and the versions
// its acknowledged commits reached.
type session struct {
	env     *env
	w       *workload
	seed    uint64
	or      *oracle
	warm    []server.SearchRequest
	dataDir string
	logPath string
	acks    []uint64 // acks[k] is the version mutation k committed at
	out     *outcome
	p       *serverProc // the running server, nil between launches
	c       *conn       // the first connection to it
}

func newSession(e *env, w *workload, seed uint64) (*session, error) {
	or, err := newOracle(seed)
	if err != nil {
		return nil, err
	}
	s := &session{
		env: e, w: w, seed: seed, or: or, warm: warmPass(seed),
		logPath: filepath.Join(e.outDir, w.name+".server.log"),
		out:     &outcome{metrics: map[string]metric{}},
	}
	// One log per workload, holding the last run's launches.
	os.Remove(s.logPath)
	if w.write {
		if err := or.advance(preloadCommits); err != nil {
			return nil, err
		}
		if s.dataDir, err = scratchDir(e.outDir, "data-"); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// stop kills the running server, if any.
func (s *session) stop() {
	if s.p != nil {
		s.c.close()
		s.p.kill()
		s.p, s.c = nil, nil
	}
}

func (s *session) close() {
	s.stop()
	if s.dataDir != "" {
		removeScratch(s.dataDir)
	}
}

// launch replaces the running server with a fresh one and waits for its
// first 200 from /healthz, returning the version it reports.
func (s *session) launch() (uint64, error) {
	s.stop()
	p, err := launch(s.env.bin, s.flags(), s.logPath)
	if err != nil {
		return 0, err
	}
	s.p, s.c = p, newConn(p.base)
	return p.waitHealthy(s.c, 60*time.Second)
}

func (s *session) flags() []string {
	if s.dataDir == "" {
		return s.w.flags
	}
	return append([]string{"-data-dir", s.dataDir}, s.w.flags...)
}

// start launches the server and brings it to the measured state: first
// 200 from /healthz, then the warm pass. The returned duration is what
// setup_s reports. On a writing workload the first launch seeds the
// directory and applies the preload commits before warming, and every
// later launch must recover exactly that state.
func (s *session) start(first bool) (time.Duration, error) {
	t0 := time.Now()
	version, err := s.launch()
	if err != nil {
		return 0, err
	}
	var preload time.Duration
	if s.w.write {
		if first {
			tp := time.Now()
			if err := s.preload(); err != nil {
				return 0, err
			}
			preload = time.Since(tp)
		} else if want := s.acks[preloadCommits-1]; version != want {
			return 0, fmt.Errorf("recovered version %d, want %d (the preload commits)", version, want)
		}
	}
	answers := make([]result, len(s.warm))
	for i, req := range s.warm {
		answers[i] = s.c.do("POST", "/search", mustJSON(req))
	}
	setup := time.Since(t0) - preload

	// Checked after the clock stopped: the oracle's work is not set-up.
	for i, req := range s.warm {
		res := answers[i]
		if res.status == http.StatusGatewayTimeout || res.latency > poolGuard {
			return 0, fmt.Errorf("pool guard: pattern %q took %v (status %d); the limit is %v — no pool pattern may be this costly",
				req.Pattern, res.latency.Round(time.Millisecond), res.status, poolGuard)
		}
		s.out.attempted++
		if !res.ok(opSearch) {
			s.out.fail("warm pass %q: status %d: %v", req.Pattern, res.status, res.err)
			continue
		}
		s.checkSearch(req, res.body)
	}
	return setup, nil
}

// preload applies the first preloadCommits mutations, waiting out each
// due checkpoint so the directory's contents do not depend on a race.
func (s *session) preload() error {
	for k := 0; k < preloadCommits; k++ {
		res := s.c.do("POST", "/graph/edges", mustJSON(mutation(s.seed, k)))
		if err := s.ack(res); err != nil {
			return fmt.Errorf("preload commit %d: %w", k, err)
		}
		if _, err := s.c.settledStats(); err != nil {
			return err
		}
	}
	return nil
}

// ack records the version an acknowledged mutation committed at.
func (s *session) ack(res result) error {
	if !res.ok(opMutate) {
		return fmt.Errorf("status %d: %v: %s", res.status, res.err, res.body)
	}
	var m server.MutationResponse
	if err := json.Unmarshal(res.body, &m); err != nil {
		return err
	}
	s.acks = append(s.acks, m.Version)
	return nil
}

func (s *session) checkSearch(req server.SearchRequest, body []byte) {
	var got server.SearchResponse
	if err := json.Unmarshal(body, &got); err != nil {
		s.out.fail("decode /search answer: %v", err)
		return
	}
	if err := s.or.check(req, &got); err != nil {
		s.out.fail("%v", err)
	}
}

// sample is one op of the measured phase.
type sample struct {
	kind    opKind
	latency time.Duration
	ok      bool
	queries int
}

// kept is a measured read held back for the oracle.
type kept struct {
	op   op
	body []byte
}

// worker drives one connection in a closed loop: the next request is
// sent only when the previous one was answered.
type worker struct {
	s       *session
	c       *conn
	gen     *generator
	samples []sample
	kept    []kept
	reads   int
	busy    time.Duration // phase start to this connection's last answer
	err     error         // a lost commit: the graph state is no longer known
}

// run sends ops until the deadline. Every op started before it is
// finished and, with record set, counted: a window cut at a fixed instant
// would charge the server for the CPU of an op it then leaves out, which
// is 3 % of a 30-op cold run.
func (w *worker) run(start, deadline time.Time, record bool) {
	for w.err == nil && time.Now().Before(deadline) {
		o := w.gen.next()
		res := w.c.do("POST", o.path, o.body)
		if o.kind == opMutate {
			if err := w.s.ack(res); err != nil {
				w.err = fmt.Errorf("commit %d lost: %w", len(w.s.acks), err)
			}
		}
		if !record {
			continue
		}
		ok := res.ok(o.kind)
		w.samples = append(w.samples, sample{kind: o.kind, latency: res.latency, ok: ok, queries: o.queries})
		if o.kind != opMutate && ok {
			if w.reads%sampleEvery == 0 {
				w.kept = append(w.kept, kept{op: o, body: res.body})
			}
			w.reads++
		}
	}
	w.busy = time.Since(start)
}

// window is what was measured from outside the server over one phase.
type window struct {
	cpuSeconds float64
	peakRSSMB  float64
	stealPct   float64 // share of the machine's CPU time the hypervisor took away
}

// drive runs every worker until the deadline and the ops then in flight
// have drained, and reads the server's CPU time around that.
func drive(p *serverProc, ws []*worker, d time.Duration, record bool) (window, error) {
	cpu0, err := p.cpuSeconds()
	if err != nil {
		return window{}, err
	}
	steal0, total0, err := hostTicks()
	if err != nil {
		return window{}, err
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(start, start.Add(d), record)
		}()
	}
	wg.Wait()
	for _, w := range ws {
		if w.err != nil {
			return window{}, w.err
		}
	}
	cpu1, err := p.cpuSeconds()
	if err != nil {
		return window{}, err
	}
	rss, err := p.peakRSSMB()
	if err != nil {
		return window{}, err
	}
	steal1, total1, err := hostTicks()
	if err != nil {
		return window{}, err
	}
	return window{
		cpuSeconds: cpu1 - cpu0,
		peakRSSMB:  rss,
		stealPct:   100 * ratio(float64(steal1-steal0), float64(total1-total0)),
	}, nil
}

// runWorkload is one untraced run: the launches that time set-up, the
// discarded warm-up, the measured phase, and the correctness checks.
func runWorkload(e *env, w *workload, seed uint64, cfg runConfig) (*outcome, error) {
	s, err := newSession(e, w, seed)
	if err != nil {
		return nil, err
	}
	defer s.close()

	var setups []float64
	for i := 0; i <= cfg.timedLaunches; i++ {
		setup, err := s.start(i == 0)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			setups = append(setups, setup.Seconds())
		}
	}

	ws := make([]*worker, w.conns)
	for i := range ws {
		wc := s.c
		if i > 0 {
			wc = newConn(s.p.base)
			defer wc.close()
		}
		ws[i] = &worker{s: s, c: wc, gen: newGenerator(w, seed, i)}
	}
	if _, err := drive(s.p, ws, cfg.warmup, false); err != nil {
		return nil, err
	}
	win, err := drive(s.p, ws, cfg.measure, true)
	if err != nil {
		return nil, err
	}

	// Throughput is summed per connection over the time that connection
	// was busy: a closed loop's rate is ops over the time they took, and
	// dividing by the nominal window instead would quantize a 30-op run
	// into 3 % steps.
	var reads, writes []time.Duration
	queries, commits, qps := 0, 0, 0.0
	for _, wk := range ws {
		answered := 0
		for _, sm := range wk.samples {
			s.out.attempted++
			switch {
			case !sm.ok:
				s.out.fail("measured op answered with an error")
			case sm.kind == opMutate:
				writes = append(writes, sm.latency)
				commits++
			default:
				reads = append(reads, sm.latency)
				answered += sm.queries
			}
		}
		queries += answered
		qps += float64(answered) / wk.busy.Seconds()
	}
	if len(reads) == 0 {
		return nil, fmt.Errorf("%s: no read completed in %v", w.name, cfg.measure)
	}
	s.out.set("setup_s", median(setups), "s")
	s.out.set("read_p50_ms", percentile(sortedMS(reads), 50), "ms")
	s.out.set("throughput_qps", qps, "1/s")
	s.out.set("cpu_ms_per_query", win.cpuSeconds*1000/float64(queries+commits), "ms")
	s.out.set("peak_rss_mb", win.peakRSSMB, "MB")
	// The rest is printed for the reader and is not part of the contract.
	// write_p50_ms exists on one workload only; it is gated through
	// cpu_ms_per_query and reported by the traced run as store.ack_p50_ms.
	if len(writes) > 0 {
		s.out.set("write_p50_ms", percentile(sortedMS(writes), 50), "ms")
	}
	s.out.set("ops", float64(len(reads)+len(writes)), "count")
	s.out.set("host_steal_pct", win.stealPct, "%")

	var all []kept
	for _, wk := range ws {
		all = append(all, wk.kept...)
	}
	if err := s.verify(all); err != nil {
		return nil, err
	}
	if w.write {
		if err := s.recoverCheck(); err != nil {
			return nil, err
		}
	}
	return s.out, nil
}

// verify compares the sampled reads with the oracle. On a writing
// workload each answer is checked at the graph version it reports, for
// up to checkedVersions distinct versions in rising order.
func (s *session) verify(all []kept) error {
	type answer struct {
		req server.SearchRequest
		got *server.SearchResponse
	}
	byVersion := map[uint64][]answer{}
	for _, k := range all {
		if k.op.kind == opBatch {
			var req server.BatchRequest
			var got server.BatchResponse
			if err := json.Unmarshal(k.op.body, &req); err != nil {
				return err
			}
			if err := json.Unmarshal(k.body, &got); err != nil || len(got.Results) != len(req.Queries) {
				s.out.attempted++
				s.out.fail("decode /batch answer: %v (%d results for %d queries)", err, len(got.Results), len(req.Queries))
				continue
			}
			for i, q := range req.Queries {
				byVersion[got.Version] = append(byVersion[got.Version], answer{q, got.Results[i].SearchResponse})
			}
			continue
		}
		var req server.SearchRequest
		var got server.SearchResponse
		if err := json.Unmarshal(k.op.body, &req); err != nil {
			return err
		}
		if err := json.Unmarshal(k.body, &got); err != nil {
			s.out.attempted++
			s.out.fail("decode /search answer: %v", err)
			continue
		}
		byVersion[got.Version] = append(byVersion[got.Version], answer{req, &got})
	}
	versions := make([]uint64, 0, len(byVersion))
	for v := range byVersion {
		versions = append(versions, v)
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
	if n := len(versions); n > checkedVersions {
		versions = []uint64{versions[0], versions[n/2], versions[n-1]}
	}
	for _, v := range versions {
		commits := 0
		if s.w.write {
			commits = sort.Search(len(s.acks), func(i int) bool { return s.acks[i] >= v }) + 1
			if commits > len(s.acks) || s.acks[commits-1] != v {
				s.out.attempted++
				s.out.fail("a read reports version %d, which no acknowledged commit produced", v)
				continue
			}
		} else if v != 0 {
			s.out.attempted++
			s.out.fail("a read reports version %d on a read-only workload", v)
			continue
		}
		if err := s.or.advance(commits); err != nil {
			return err
		}
		for _, a := range byVersion[v] {
			s.out.attempted++
			if err := s.or.check(a.req, a.got); err != nil {
				s.out.fail("%v", err)
			}
		}
	}
	return nil
}

// recoverCheck is the durability check: the server is killed with
// SIGKILL; relaunched on its directory it must report exactly the
// version of the last acknowledged commit and answer the headline query
// as an in-process recompute with the same mutations applied does.
// SIGKILL leaves the operating system's cache intact, so this proves
// recovery from a process crash, not from power loss.
func (s *session) recoverCheck() error {
	if err := s.or.advance(len(s.acks)); err != nil {
		return err
	}
	version, err := s.launch()
	if err != nil {
		return err
	}
	s.out.attempted++
	if want := s.acks[len(s.acks)-1]; version != want {
		s.out.fail("after kill -9 the server recovered version %d, want %d (%d acknowledged commits)", version, want, len(s.acks))
	}
	s.out.attempted++
	if res := s.c.do("POST", "/search", mustJSON(s.warm[0])); res.ok(opSearch) {
		s.checkSearch(s.warm[0], res.body)
	} else {
		s.out.fail("headline query after recovery: status %d: %v", res.status, res.err)
	}
	return nil
}
