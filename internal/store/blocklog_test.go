package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"relsim/internal/graph"
	"relsim/internal/wal"
)

// blockGraph is a seed of several node blocks and label chunks, so a
// checkpoint after a few commits appends some blocks and reuses others.
func blockGraph(rng *rand.Rand) *graph.Graph {
	g := graph.New()
	for i := 0; i < 700; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), "t")
	}
	for i := 0; i < 2000; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(700)), []string{"x", "y"}[rng.Intn(2)], graph.NodeID(rng.Intn(700)))
	}
	return g
}

// history commits batches of random mutations to s and a model builder
// chain alike, and records the model at every batch boundary.
type history struct {
	expect     []*graph.Snapshot // index = batches committed
	boundaries []uint64          // version at each boundary
}

func newHistory(seed *graph.Snapshot) *history {
	return &history{expect: []*graph.Snapshot{seed}, boundaries: []uint64{0}}
}

func (h *history) commit(t *testing.T, s *Store, rng *rand.Rand, batches int) {
	t.Helper()
	for i := 0; i < batches; i++ {
		model := graph.NewBuilder(h.expect[len(h.expect)-1])
		size := 1 + rng.Intn(3)
		err := s.Update(func(tx *Tx) error {
			for j := 0; j < size; j++ {
				if rng.Intn(4) == 0 {
					name := fmt.Sprintf("m%d-%d-%d", len(h.expect), i, j)
					tx.AddNode(name, "t")
					model.AddNode(name, "t")
					continue
				}
				u := graph.NodeID(rng.Intn(model.NumNodes()))
				v := graph.NodeID(rng.Intn(model.NumNodes()))
				label := []string{"x", "y", "z"}[rng.Intn(3)]
				if rng.Intn(3) == 0 && model.EdgeCount(u, label, v) > 0 {
					if err := tx.RemoveEdge(u, label, v); err != nil {
						return err
					}
					model.RemoveEdge(u, label, v)
					continue
				}
				if err := tx.AddEdge(u, label, v); err != nil {
					return err
				}
				if err := model.AddEdge(u, label, v); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		h.expect = append(h.expect, model.Build())
		h.boundaries = append(h.boundaries, h.boundaries[len(h.boundaries)-1]+uint64(size))
	}
}

// check reports whether rec holds the committed prefix at a batch
// boundary.
func (h *history) check(t *testing.T, name string, rec *Store) {
	t.Helper()
	got := rec.Version()
	for i, v := range h.boundaries {
		if v == got {
			if snap, _ := rec.Snapshot(); !sameDatabase(snap, h.expect[i]) {
				t.Fatalf("%s: recovered graph at version %d does not match the committed prefix", name, got)
			}
			return
		}
	}
	t.Fatalf("%s: recovered version %d is not a batch boundary %v", name, got, h.boundaries)
}

// TestCheckpointLogCrashCuts is the crash property of the block log. A
// store checkpoints twice over one log generation, the second appending
// a region of blocks, and commits a WAL tail after. Each case rebuilds
// the directory as a crash could leave it, with the WAL cut at a random
// byte too:
//   - mid-append: the log cut at a random byte of the second
//     checkpoint's region, its manifest not yet written;
//   - mid-manifest: the whole log, the manifest's temp file cut at a
//     random byte;
//   - between rename and retire, with a bit flipped in an extent only
//     the second manifest references, half of them in a digit the graph
//     still parses with: its CRC fails, and recovery falls back to the
//     first and counts it in CorruptCheckpointsSkipped.
//
// Recovery must give a committed prefix equal to the model at a batch
// boundary, and the recovered store must checkpoint and recover again.
// With the flipped extent's manifest alone on disk, Open must fail.
func TestCheckpointLogCrashCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	base := t.TempDir()
	src := filepath.Join(base, "src")
	seed := blockGraph(rng)
	s, err := Open(src, WithSeed(seed), WithCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	h := newHistory(seed.Snapshot())
	h.commit(t, s, rng, 6)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	first := checkpointFiles(t, src)
	h.commit(t, s, rng, 6)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	second := checkpointFiles(t, src)
	h.commit(t, s, rng, 6)
	segs := walFiles(t, src)
	if len(segs) != 1 {
		t.Fatalf("expected one WAL segment, got %v", segs)
	}
	walBytes, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	split := func(files map[string][]byte) (manifest, log string) {
		for name := range files {
			if strings.HasSuffix(name, manifestSuffix) {
				manifest = name
			} else if strings.HasPrefix(name, logPrefix) {
				log = name
			}
		}
		if manifest == "" || log == "" || len(files) != 2 {
			t.Fatalf("checkpoint files %v: want one manifest and one log", keys(files))
		}
		return manifest, log
	}
	firstManifest, logName := split(first)
	secondManifest, secondLog := split(second)
	if secondLog != logName {
		t.Fatalf("the second checkpoint started log %s, want it to append to %s", secondLog, logName)
	}
	region := [2]int{len(first[logName]), len(second[logName])}
	if region[0] >= region[1] {
		t.Fatalf("the second checkpoint appended nothing (log %d → %d bytes)", region[0], region[1])
	}
	t.Logf("log %d bytes after the first checkpoint, %d after the second", region[0], region[1])

	caseNo := 0
	recoverCase := func(kind string, files map[string][]byte, wantSkipped int) {
		t.Helper()
		caseNo++
		name := fmt.Sprintf("case %d (%s)", caseNo, kind)
		dir := filepath.Join(base, fmt.Sprintf("case-%d", caseNo))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(segs[0])] = walBytes[:rng.Intn(len(walBytes)+1)]
		for f, b := range files {
			if err := os.WriteFile(filepath.Join(dir, f), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rec, err := Open(dir, WithCheckpointEvery(0))
		if err != nil {
			t.Fatalf("%s: recovery error: %v", name, err)
		}
		h.check(t, name, rec)
		if got := rec.DurabilityStats().Recovery.CorruptCheckpointsSkipped; got != wantSkipped {
			t.Fatalf("%s: skipped %d corrupt checkpoints, want %d", name, got, wantSkipped)
		}
		// The recovered directory goes on: a checkpoint starts a new
		// generation, and it recovers again.
		v := rec.Version()
		if err := rec.Checkpoint(); err != nil {
			t.Fatalf("%s: checkpoint after recovery: %v", name, err)
		}
		rec.Close()
		again, err := Open(dir)
		if err != nil {
			t.Fatalf("%s: second recovery: %v", name, err)
		}
		if again.Version() != v || again.DurabilityStats().Recovery.CorruptCheckpointsSkipped != 0 {
			t.Fatalf("%s: second recovery at version %d (skipped %d), want %d", name, again.Version(),
				again.DurabilityStats().Recovery.CorruptCheckpointsSkipped, v)
		}
		h.check(t, name+", reopened", again)
		again.Close()
	}
	for i := 0; i < 12; i++ {
		cut := region[0] + rng.Intn(region[1]-region[0]+1)
		recoverCase("mid-append", map[string][]byte{
			firstManifest: first[firstManifest],
			logName:       second[logName][:cut],
		}, 0)
	}
	for i := 0; i < 8; i++ {
		m := second[secondManifest]
		recoverCase("mid-manifest", map[string][]byte{
			firstManifest:                  first[firstManifest],
			logName:                        second[logName],
			secondManifest + ".tmp":        m[:rng.Intn(len(m))],
			logPrefix + "ffff" + logSuffix: nil, // a generation a crash left empty
		}, 0)
	}
	for i := 0; i < 8; i++ {
		log := bytes.Clone(second[logName])
		at := region[0] + rng.Intn(region[1]-region[0])
		if i%2 == 0 {
			// A flip that still parses: the last digit of an edge's
			// target, to its neighbour id.
			for log[at] < '0' || log[at] > '9' || log[at+1] != '}' {
				at = region[0] + rng.Intn(region[1]-region[0])
			}
			log[at] ^= 1
		} else {
			log[at] ^= 1 << rng.Intn(8)
		}
		recoverCase("flipped extent", map[string][]byte{
			firstManifest:  first[firstManifest],
			secondManifest: second[secondManifest],
			logName:        log,
		}, 1)
	}

	// The flipped extent's manifest alone: nothing readable is left, and
	// Open says so instead of starting from an empty graph.
	dir := filepath.Join(base, "alone")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	log := bytes.Clone(second[logName])
	log[region[1]-2] ^= 0x20
	for f, b := range map[string][]byte{secondManifest: second[secondManifest], logName: log, filepath.Base(segs[0]): walBytes} {
		if err := os.WriteFile(filepath.Join(dir, f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if rec, err := Open(dir); err == nil {
		rec.Close()
		t.Fatal("recovery from a checkpoint whose CRC fails succeeded")
	}
}

func keys(m map[string][]byte) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

// streamed reads s's checkpoint stream whole.
func streamed(t *testing.T, s *Store) ([]byte, uint64) {
	t.Helper()
	rc, version, size, err := s.CheckpointReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	b, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(b)) != size {
		t.Fatalf("checkpoint stream of %d bytes, size says %d", len(b), size)
	}
	return b, version
}

// TestCheckpointReaderMatchesWriteView: every checkpoint streams
// exactly WriteView of its version, whether it appended to the log or
// started a generation because the log outgrew logGrowth times the
// graph, and after a Reset onto the graph read back from its own
// checkpoint, as a follower bootstraps, whose blocks are all new. Each
// manifest's CRC-32C, folded from its blocks', is crc32.Checksum of
// the stream.
func TestCheckpointReaderMatchesWriteView(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dir := t.TempDir()
	s, err := Open(dir, WithSeed(blockGraph(rng)), WithSync(wal.SyncNever), WithCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := newHistory(nil)
	logs := map[string]bool{}
	for round := 0; round < 30; round++ {
		switch {
		case round == 20:
			b, v := streamed(t, s)
			g, err := graph.Read(bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Reset(g.Snapshot(), v); err != nil {
				t.Fatal(err)
			}
		case round%3 == 0:
			// A commit that touches every block of the graph.
			err := s.Update(func(tx *Tx) error {
				n := tx.AddNode(fmt.Sprintf("r%d", round), "t")
				for u := graph.NodeID(0); u < n; u += 200 {
					for _, l := range []string{"x", "y"} {
						if err := tx.AddEdge(u, l, n); err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		default:
			h.boundaries = []uint64{s.Version()}
			snap, _ := s.Snapshot()
			h.expect = []*graph.Snapshot{snap}
			h.commit(t, s, rng, 2)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		got, version := streamed(t, s)
		snap, live := s.Snapshot()
		var want bytes.Buffer
		if _, err := graph.WriteView(&want, snap); err != nil {
			t.Fatal(err)
		}
		if version != live || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("round %d: checkpoint stream at version %d (%d bytes) is not WriteView of version %d (%d bytes)",
				round, version, len(got), live, want.Len())
		}
		var m manifest
		if b, err := os.ReadFile(filepath.Join(dir, manifestName(version))); err != nil {
			t.Fatal(err)
		} else if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		if crc := crc32.Checksum(got, castagnoli); m.CRC != crc {
			t.Fatalf("round %d: manifest CRC-32C %08x, the stream's %08x", round, m.CRC, crc)
		}
		s.dur.ckptMu.Lock()
		logs[s.dur.newest.Log] = true
		s.dur.ckptMu.Unlock()
	}
	if len(logs) < 2 {
		t.Fatalf("the checkpoints used logs %v: want a generation started by growth", logs)
	}
	if ls, _ := filepath.Glob(filepath.Join(dir, logPrefix+"*")); len(ls) != 1 {
		t.Fatalf("block logs on disk: %v, want the current one only", ls)
	}
}

// TestParentFormatCheckpointRecovers: a directory whose checkpoint is
// one file written whole, as stores wrote them before the block log,
// recovers from that file and its WAL tail, streams the file as its
// checkpoint, and moves to the block log at its next checkpoint, which
// retires the file.
func TestParentFormatCheckpointRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	dir := t.TempDir()
	seed := blockGraph(rng)
	s, err := Open(dir, WithSeed(seed), WithCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	h := newHistory(seed.Snapshot())
	h.commit(t, s, rng, 4)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	whole, version := streamed(t, s)
	h.commit(t, s, rng, 4)
	s.Close()
	for name := range checkpointFiles(t, dir) {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	parent := filepath.Join(dir, fmt.Sprintf("%s%016x%s", checkpointPrefix, version, checkpointSuffix))
	if err := os.WriteFile(parent, whole, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := Open(dir, WithCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	h.check(t, "parent format", rec)
	if rs := rec.DurabilityStats().Recovery; rs.CheckpointVersion != version || rs.CorruptCheckpointsSkipped != 0 {
		t.Fatalf("recovery = %+v, want it to start from the file at version %d", rs, version)
	}
	if got, v := streamed(t, rec); v != version || !bytes.Equal(got, whole) {
		t.Fatalf("the recovered store streams version %d (%d bytes), want the file's %d (%d bytes)", v, len(got), version, len(whole))
	}
	if err := rec.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(parent); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the file written whole survived the next checkpoint: %v", err)
	}
	v := rec.Version()
	rec.Close()
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Version() != v || again.DurabilityStats().Recovery.CheckpointVersion != v {
		t.Fatalf("reopened at version %d from checkpoint %d, want both %d", again.Version(), again.DurabilityStats().Recovery.CheckpointVersion, v)
	}
	h.check(t, "reopened", again)
}
