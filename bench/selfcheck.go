package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// selfcheckRuns is how many seeds each workload runs per set.
const selfcheckRuns = 3

// contract is the part of BENCHMARK.json the self-check needs: the
// bound of each end-to-end metric is fixed there and nowhere else.
type contract struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSelfcheck runs two full sets — every workload at selfcheckRuns
// seeds — on the same binary, prints each metric's two medians, and
// fails if any pair differs by more than the metric's bound: the
// benchmark must agree with itself before it may judge a change. The
// two sets alternate run by run, and which goes first alternates too, as
// the paired runs of a parent and a change will: this box changes speed
// by 10–20 % for minutes at a time, and two sets run one after the other
// measure that, not the benchmark.
func runSelfcheck(e *env, seconds float64) int {
	raw, err := os.ReadFile(filepath.Join(e.root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 1
	}
	cfg := defaultRun(time.Duration(seconds * float64(time.Second)))
	var sets [2]map[string]map[string][]float64 // set → workload → metric → values
	for set := range sets {
		sets[set] = map[string]map[string][]float64{}
	}
	for i := range workloads {
		w := &workloads[i]
		for seed := uint64(1); seed <= selfcheckRuns; seed++ {
			for k := 0; k < 2; k++ {
				set := (k + int(seed)) % 2
				out, err := runWorkload(e, w, seed, cfg)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
					return 1
				}
				if out.failed > 0 {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d of %d failed: %v\n", w.name, seed, out.failed, out.attempted, out.notes)
					return 1
				}
				if sets[set][w.name] == nil {
					sets[set][w.name] = map[string][]float64{}
				}
				for name, m := range out.metrics {
					sets[set][w.name][name] = append(sets[set][w.name][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "bench: selfcheck set %d %s seed %d done\n", set+1, w.name, seed)
			}
		}
	}
	fmt.Printf("%-20s %-18s %12s %12s %8s %6s\n", "workload", "metric", "median 1", "median 2", "diff", "bound")
	ok := true
	for i := range workloads {
		name := workloads[i].name
		for _, m := range c.EndToEnd {
			a, b := median(sets[0][name][m.Name]), median(sets[1][name][m.Name])
			diff := math.Abs(a-b) / a
			verdict := ""
			if diff > m.Bound {
				verdict = "  FAIL"
				ok = false
			}
			fmt.Printf("%-20s %-18s %12.4f %12.4f %7.1f%% %5.0f%%%s\n", name, m.Name, a, b, 100*diff, 100*m.Bound, verdict)
		}
	}
	if !ok {
		fmt.Println("selfcheck: FAIL")
		return 1
	}
	fmt.Println("selfcheck: ok")
	return 0
}
