// Command bench is the repository's one benchmark: it builds
// ./cmd/relsim-serve, launches it as a child process on the FullDBLP
// dataset, drives it over HTTP keep-alive connections from this single
// process, checks the answers against an in-process oracle, and prints
// every metric by name with its unit. See README.md in this directory.
//
// Usage (from the repository root):
//
//	go run -C bench . -seed 1                       all four workloads, end-to-end metrics
//	go run -C bench . -seed 1 -trace 1              the traced run: per-layer metrics + out/trace.json
//	go run -C bench . -workload search_full_cold    one workload
//	go run -C bench . -selfcheck                    two sets on one binary must agree within the bounds
//
// The last line of standard output of each workload is one JSON object
// {"correct", "attempted", "failed", "metrics"}; everything else a
// person reads goes before it, progress goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// endToEnd lists the metrics of an untraced run in the order they are
// printed; BENCHMARK.json fixes the bound of each.
var endToEnd = []string{"setup_s", "read_p50_ms", "throughput_qps", "cpu_ms_per_query", "peak_rss_mb"}

func main() {
	os.Exit(run())
}

func run() int {
	workloadName := flag.String("workload", "", "workload to run (default: all four)")
	seed := flag.Uint64("seed", 1, "the only input of the op generator")
	seconds := flag.Float64("seconds", 15, "length of the measured phase; BENCHMARK.json fixes the value the driver passes")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics instead")
	selfcheck := flag.Bool("selfcheck", false, "run two full sets on one binary and fail if any end-to-end median pair differs by more than its bound")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}

	// Every exit path below returns through here, and a signal takes the
	// same route: no child or scratch directory outlives the run.
	defer cleanupAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanupAll()
		os.Exit(130)
	}()

	e, err := prepare()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *selfcheck {
		return runSelfcheck(e, *seconds)
	}

	selected := workloads
	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []workload{*w}
	}
	traces := map[string]*traceDoc{}
	allCorrect := true
	for i := range selected {
		w := &selected[i]
		start := time.Now()
		var out *outcome
		if *trace == 1 {
			var doc *traceDoc
			if out, doc, err = traceWorkload(e, w, *seed, *seconds); err == nil {
				traces[w.name] = doc
			}
		} else {
			out, err = runWorkload(e, w, *seed, defaultRun(time.Duration(*seconds*float64(time.Second))))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "bench: %s seed %d done in %.1fs\n", w.name, *seed, time.Since(start).Seconds())
		report(w, out, *trace == 1)
		allCorrect = allCorrect && out.failed == 0
	}
	if *trace == 1 {
		path := filepath.Join(e.outDir, "trace.json")
		if err := writeJSON(path, traces); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "bench: spans and layer table written to", path)
	}
	if !allCorrect {
		return 1
	}
	return 0
}

// prepare locates the checkout, creates bench/out and builds the server.
func prepare() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, outDir: filepath.Join(root, "bench", "out")}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	e.bin = filepath.Join(e.outDir, "relsim-serve")
	if err := buildServer(root, e.bin); err != nil {
		return nil, err
	}
	return e, nil
}

// report prints one workload's metrics for a reader, then the result
// line the driver parses: with traced false exactly the end-to-end
// metrics, with traced true exactly the per-layer ones.
func report(w *workload, out *outcome, traced bool) {
	fmt.Printf("== %s: %s\n", w.name, w.why)
	printed, result := sortedNames(out.metrics), out.metrics
	if !traced {
		printed = append(append([]string(nil), endToEnd...), "write_p50_ms", "ops", "host_steal_pct")
		result = map[string]metric{}
		for _, name := range endToEnd {
			result[name] = out.metrics[name]
		}
	}
	for _, name := range printed {
		if m, ok := out.metrics[name]; ok {
			fmt.Printf("%-36s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
	fmt.Printf("%-36s %14d\n%-36s %14d\n", "attempted", out.attempted, "failed", out.failed)
	for _, n := range out.notes {
		fmt.Println("  failed:", n)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, result})
	if err != nil {
		panic(err) // a map of float and string always marshals
	}
	fmt.Println(string(line))
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
