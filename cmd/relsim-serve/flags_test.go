package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestInvalidFsyncRejectedUpFront is the regression test for -fsync
// only being parsed inside the -data-dir branch: a typo'd policy on an
// in-memory server used to start happily. Both roles must return the
// error before anything is opened or listens — run returning at all is
// the proof, since a server that got as far as listening blocks until
// it is signalled.
func TestInvalidFsyncRejectedUpFront(t *testing.T) {
	for name, args := range map[string][]string{
		"leader":   {"-dataset", "dblp-small", "-addr", "127.0.0.1:0", "-fsync", "sometimes"},
		"follower": {"-follow", "http://127.0.0.1:1", "-addr", "127.0.0.1:0", "-fsync", "sometimes"},
	} {
		t.Run(name, func(t *testing.T) {
			errc := make(chan error, 1)
			go func() { errc <- run(args) }()
			select {
			case err := <-errc:
				if err == nil || !strings.Contains(err.Error(), "-fsync") {
					t.Fatalf("run(%v) = %v, want an invalid -fsync error", args, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("run(%v) did not return: the server started despite the invalid -fsync", args)
			}
		})
	}
}

// TestFlagsDocumented is the flag/README drift guard: every flag
// bindFlags registers must be named in the top-level README, and the
// selectors of the retired off-paths and one-value knobs must stay
// gone.
func TestFlagsDocumented(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("relsim-serve", flag.ContinueOnError)
	bindFlags(fs)
	fs.VisitAll(func(f *flag.Flag) {
		// Whole-flag match: "-in" must not be satisfied by "p-in" or
		// "-interval".
		re := regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(f.Name) + `($|[^\w-])`)
		if !re.Match(readme) {
			t.Errorf("flag -%s is registered but README.md never mentions it", f.Name)
		}
	})
	for _, name := range []string{"workload-plan", "annotate", "parallel-min-dim", "parallel-min-nnz", "delta-max-density", "shards", "shard-fn", "delta-maintenance"} {
		if fs.Lookup(name) != nil {
			t.Errorf("flag -%s is defined again: its other value was deleted, not parked", name)
		}
	}
}
