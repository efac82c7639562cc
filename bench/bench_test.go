package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"relsim/internal/server"
)

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {0.5, 1}, {75, 75}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of an even sample = %v, want the lower middle 2", got)
	}
}

// The tail is the highest level with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		level float64
	}{
		{10000, 99.9}, // 10 beyond p99.9
		{9999, 99},    // 9 beyond p99.9
		{1000, 99},    // exactly 10 beyond p99
		{999, 95},     // 9 beyond p99
		{200, 95},     // exactly 10 beyond p95
		{100, 90},
		{40, 75},
		{39, 50}, // 9 beyond p75: nothing but the median is supported
		{0, 50},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		level, v := tailPercentile(xs)
		if level != c.level {
			t.Errorf("tailPercentile(n=%d) level = %v, want %v", c.n, level, c.level)
		}
		if want := percentile(xs, c.level); v != want {
			t.Errorf("tailPercentile(n=%d) value = %v, want %v", c.n, v, want)
		}
	}
}

func TestParseStatTicks(t *testing.T) {
	// comm may hold spaces and parentheses; utime=1234 and stime=56 are
	// fields 14 and 15.
	line := []byte("4242 (relsim) serve (x)) S 1 4242 4242 0 -1 4194560 9000 0 3 0 1234 56 0 0 20 0 9 0 123456 800000000 50000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n")
	got, err := parseStatTicks(line)
	if err != nil || got != 1290 {
		t.Fatalf("parseStatTicks = %d, %v; want 1290", got, err)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 a 12 13"} {
		if _, err := parseStatTicks([]byte(bad)); err == nil {
			t.Errorf("parseStatTicks(%q) accepted malformed input", bad)
		}
	}
	self, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		t.Skip("no /proc:", err)
	}
	if _, err := parseStatTicks(self); err != nil {
		t.Errorf("parseStatTicks(/proc/self/stat): %v", err)
	}
}

func TestParseStatusKB(t *testing.T) {
	status := []byte("Name:\trelsim-serve\nVmPeak:\t 1300000 kB\nVmHWM:\t  812345 kB\nVmRSS:\t  700000 kB\n")
	got, err := parseStatusKB(status, "VmHWM")
	if err != nil || got != 812345 {
		t.Fatalf("parseStatusKB(VmHWM) = %d, %v; want 812345", got, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("a missing key was accepted")
	}
	if _, err := parseStatusKB([]byte("VmHWM:\t12 MB\n"), "VmHWM"); err == nil {
		t.Error("a unit other than kB was accepted")
	}
}

func TestParseHostTicks(t *testing.T) {
	steal, total, err := parseHostTicks("cpu  1025927 0 166594 798941 2826 0 15207 150092 0 0")
	if err != nil || steal != 150092 || total != 1025927+166594+798941+2826+15207+150092 {
		t.Fatalf("parseHostTicks = %d, %d, %v", steal, total, err)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3", "cpu 1 2 3 4 5 6 7 x"} {
		if _, _, err := parseHostTicks(bad); err == nil {
			t.Errorf("parseHostTicks(%q) accepted malformed input", bad)
		}
	}
}

func TestParseServerTiming(t *testing.T) {
	got, err := parseServerTiming("expand;dur=0.24, score;dur=290.49, score;dur=1.01, total;dur=292.00")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"expand": 0.24, "score": 291.5, "total": 292}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseServerTiming = %v, want %v", got, want)
	}
	if got, err := parseServerTiming(""); err != nil || len(got) != 0 {
		t.Errorf("an absent header gave %v, %v", got, err)
	}
	if got, err := parseServerTiming(`db;desc="x";dur=5`); err != nil || got["db"] != 5 {
		t.Errorf("a description parameter gave %v, %v", got, err)
	}
	for _, bad := range []string{"total", "total;dur=abc", "total;desc=x"} {
		if _, err := parseServerTiming(bad); err == nil {
			t.Errorf("parseServerTiming(%q) accepted malformed input", bad)
		}
	}
}

func TestParseMetrics(t *testing.T) {
	body := []byte("# HELP x y\n# TYPE x counter\nrelsim_wal_appended_bytes_total 3132\nrelsim_http_requests_total{endpoint=\"search\"} 7\nrelsim_store_commit_seconds_sum 1.5\n")
	got := parseMetrics(body)
	want := map[string]float64{"relsim_wal_appended_bytes_total": 3132, "relsim_store_commit_seconds_sum": 1.5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseMetrics = %v, want %v", got, want)
	}
}

// The same seed yields byte-identical request bodies, connection by
// connection, and another seed does not.
func TestGeneratorDeterminism(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for conn := 0; conn < w.conns; conn++ {
			a, b, other := newGenerator(w, 7, conn), newGenerator(w, 7, conn), newGenerator(w, 8, conn)
			same := true
			for n := 0; n < 200; n++ {
				x, y, z := a.next(), b.next(), other.next()
				if x.path != y.path || !bytes.Equal(x.body, y.body) {
					t.Fatalf("%s conn %d op %d: same seed gave %s %s and %s %s", w.name, conn, n, x.path, x.body, y.path, y.body)
				}
				same = same && bytes.Equal(x.body, z.body)
			}
			if same {
				t.Errorf("%s conn %d: seeds 7 and 8 generate the same 200 ops", w.name, conn)
			}
		}
	}
	if !reflect.DeepEqual(warmPass(3), warmPass(3)) {
		t.Error("warmPass is not a function of the seed")
	}
	if !reflect.DeepEqual(mutation(3, 9), mutation(3, 9)) {
		t.Error("mutation is not a function of (seed, k)")
	}
}

// The read rule: two headline reads, then one side pattern, rotating
// through the whole pool; a writing workload mutates on every tenth op,
// and each mutation removes the w edge that the one two before it added.
func TestReadRuleAndMutations(t *testing.T) {
	g := newGenerator(workloadByName("search_full_warm"), 1, 0)
	sides := map[string]bool{}
	for n := 0; n < 3*len(sidePool); n++ {
		var req server.SearchRequest
		if err := json.Unmarshal(g.next().body, &req); err != nil {
			t.Fatal(err)
		}
		if headline := req.Pattern == headlinePattern; headline != (n%3 != 2) {
			t.Fatalf("read %d has pattern %q", n, req.Pattern)
		}
		if n%3 == 2 {
			sides[req.Pattern] = true
		}
	}
	if len(sides) != len(sidePool) {
		t.Errorf("%d distinct side patterns in one rotation, want %d", len(sides), len(sidePool))
	}

	g = newGenerator(workloadByName("mixed_full_durable"), 1, 0)
	for n := 0; n < 40; n++ {
		if o := g.next(); (o.kind == opMutate) != (n%mutateEvery == mutateEvery-1) {
			t.Fatalf("op %d of the writing workload has kind %v", n, o.kind)
		}
	}
	m5, m7 := mutation(1, 5), mutation(1, 7)
	if got, want := m7.Remove[0], m5.Add[1]; got != want {
		t.Errorf("mutation 7 removes %+v, want the w edge %+v that mutation 5 added", got, want)
	}
	if len(mutation(1, 1).Remove) != 0 {
		t.Error("mutation 1 removes an edge, but no mutation -1 exists")
	}
}

// /batch permutes disjunction branches; /search never does.
func TestBranchPermutation(t *testing.T) {
	renders := func(w *workload) map[string]bool {
		g := newGenerator(w, 1, 0)
		out := map[string]bool{}
		for n := 0; n < 600; n++ {
			out[g.read().Pattern] = true
		}
		return out
	}
	alt := sidePool[7]
	plain, batch := renders(workloadByName("search_full_warm")), renders(workloadByName("batch_full_warm"))
	if plain[alt.render(true)] {
		t.Error("/search reads carry a permuted disjunction")
	}
	if !batch[alt.render(true)] || !batch[alt.render(false)] {
		t.Error("/batch reads do not carry both branch orders")
	}
}

// BENCHMARK.json names exactly the workloads and metrics the code
// produces, so the contract and the program cannot drift apart.
func TestContractMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) in the code", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	var names []string
	for _, m := range c.EndToEnd {
		names = append(names, m.Name)
	}
	if !reflect.DeepEqual(names, endToEnd) {
		t.Errorf("end-to-end metrics are %v in BENCHMARK.json, %v in the code", names, endToEnd)
	}
}

// One smoke run against the real binary: search_full_warm with one timed
// launch and a 1 s measured phase must answer everything correctly and
// report every end-to-end metric; the traced run must report exactly the
// per-layer metrics BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches relsim-serve")
	}
	t.Cleanup(cleanupAll)
	e, err := prepare()
	if err != nil {
		t.Fatal(err)
	}
	w := workloadByName("search_full_warm")
	out, err := runWorkload(e, w, 1, runConfig{timedLaunches: 1, warmup: 200 * time.Millisecond, measure: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 || out.attempted < 100 {
		t.Errorf("attempted %d, failed %d: %v", out.attempted, out.failed, out.notes)
	}
	for _, name := range endToEnd {
		if m, ok := out.metrics[name]; !ok || m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %+v", name, m)
		}
	}

	traced, doc, err := traceWorkload(e, w, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if traced.failed != 0 {
		t.Errorf("traced run: %d of %d failed: %v", traced.failed, traced.attempted, traced.notes)
	}
	raw, err := os.ReadFile(filepath.Join(e.root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, m := range c.PerLayer {
		want = append(want, m.Name)
		if got := traced.metrics[m.Name].Unit; got != m.Unit {
			t.Errorf("per-layer metric %s has unit %q, BENCHMARK.json says %q", m.Name, got, m.Unit)
		}
	}
	sort.Strings(want)
	if got := sortedNames(traced.metrics); !reflect.DeepEqual(got, want) {
		t.Errorf("traced run reports %v\nBENCHMARK.json lists %v", got, want)
	}
	if v := traced.metrics["eval.products_per_op"].Value; v != 0 {
		t.Errorf("eval.products_per_op = %v on the warm workload, want 0", v)
	}
	if len(doc.Spans) < doc.Ops {
		t.Errorf("%d spans for %d traced ops", len(doc.Spans), doc.Ops)
	}
}
