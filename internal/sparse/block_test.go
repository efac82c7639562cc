package sparse

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// randMatrix builds a random n×n matrix with roughly density*n*n entries.
func randMatrix(rng *rand.Rand, n int, density float64) *Matrix {
	var triples []Triple
	target := int(density * float64(n) * float64(n))
	for i := 0; i < target; i++ {
		triples = append(triples, Triple{
			Row: rng.Intn(n),
			Col: rng.Intn(n),
			Val: int64(1 + rng.Intn(5)),
		})
	}
	return New(n, triples)
}

// gEqual reports whether two generic matrices are identical: same
// dimension and, row by row, the same columns and the same values under
// ==. For Witness this is exact structural equality, which is what
// bit-identity demands.
func gEqual[T comparable](a, b *GMatrix[T]) bool {
	return gEqualRows(a, b, slices.Equal[[]T])
}

func TestNewPartitionValidation(t *testing.T) {
	for _, k := range []int{0, -1, -100} {
		if _, err := NewPartition(k, PartitionHash, 10); err == nil {
			t.Errorf("NewPartition(%d, hash): want error, got nil", k)
		}
	}
	if _, err := NewPartition(4, "round-robin", 10); err == nil {
		t.Error("NewPartition with unknown fn: want error, got nil")
	} else if !strings.Contains(err.Error(), "round-robin") {
		t.Errorf("unknown-fn error should name the bad function, got %q", err)
	}
	if _, err := RestorePartition(0, PartitionRange, 4); err == nil {
		t.Error("RestorePartition(0): want error, got nil")
	}
	if _, err := RestorePartition(4, "modulo", 4); err == nil {
		t.Error("RestorePartition with unknown fn: want error, got nil")
	}
	for _, fn := range []string{PartitionHash, PartitionRange} {
		p, err := NewPartition(4, fn, 16)
		if err != nil {
			t.Fatalf("NewPartition(4, %s, 16): %v", fn, err)
		}
		if p.K() != 4 || p.Fn() != fn {
			t.Errorf("partition %s: K=%d Fn=%q", fn, p.K(), p.Fn())
		}
	}
}

func TestPartitionZeroValueTrivial(t *testing.T) {
	var p Partition
	if !p.Trivial() || p.K() != 1 {
		t.Fatalf("zero Partition should be the trivial single shard, got K=%d", p.K())
	}
	for _, id := range []int{0, 1, 7, 1 << 20} {
		if got := p.Owner(id); got != 0 {
			t.Errorf("trivial Owner(%d) = %d, want 0", id, got)
		}
	}
	p1, err := NewPartition(1, PartitionRange, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !p1.Trivial() {
		t.Error("NewPartition(1, ...) should be trivial")
	}
}

func TestOwnerStability(t *testing.T) {
	// Hash ownership must not depend on the node count the partition was
	// created with: a node keeps its shard as the graph grows.
	pa, _ := NewPartition(8, PartitionHash, 10)
	pb, _ := NewPartition(8, PartitionHash, 100000)
	for id := 0; id < 5000; id++ {
		a, b := pa.Owner(id), pb.Owner(id)
		if a != b {
			t.Fatalf("hash Owner(%d) differs across creation sizes: %d vs %d", id, a, b)
		}
		if a < 0 || a >= 8 {
			t.Fatalf("hash Owner(%d) = %d out of range", id, a)
		}
	}

	// Range ownership is by fixed-size chunk, with growth past the last
	// boundary clamped onto the final shard.
	pr, _ := NewPartition(4, PartitionRange, 16) // chunk = 4
	if pr.Chunk() != 4 {
		t.Fatalf("range chunk = %d, want 4", pr.Chunk())
	}
	for id := 0; id < 16; id++ {
		if got, want := pr.Owner(id), id/4; got != want {
			t.Errorf("range Owner(%d) = %d, want %d", id, got, want)
		}
	}
	for _, id := range []int{16, 17, 100, 1 << 20} {
		if got := pr.Owner(id); got != 3 {
			t.Errorf("grown id %d should clamp to last shard 3, got %d", id, got)
		}
	}

	// Restoring from a persisted chunk reproduces identical ownership.
	rp, err := RestorePartition(4, PartitionRange, pr.Chunk())
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 64; id++ {
		if rp.Owner(id) != pr.Owner(id) {
			t.Fatalf("restored range Owner(%d) = %d, want %d", id, rp.Owner(id), pr.Owner(id))
		}
	}
}

func TestSplitMergeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 5, 32, 100} {
		m := randMatrix(rng, n, 0.1)
		for _, fn := range []string{PartitionHash, PartitionRange} {
			for _, k := range []int{1, 2, 3, 8} {
				p, err := NewPartition(k, fn, n)
				if err != nil {
					t.Fatal(err)
				}
				blocks := m.SplitRows(p)
				if len(blocks) != k {
					t.Fatalf("SplitRows: %d blocks, want %d", len(blocks), k)
				}
				got := MergeRowDisjoint(p, blocks, n)
				if !got.Equal(m) {
					t.Errorf("n=%d %s/%d: split+merge != identity", n, fn, k)
				}
			}
		}
	}
}

func TestMergeRowDisjointNilBlocks(t *testing.T) {
	// A nil block stands for "shard owns no rows with entries"; the merge
	// must treat it as empty rather than panic.
	n := 8
	p, _ := NewPartition(4, PartitionRange, n) // chunk 2
	m := New(n, []Triple{{Row: 0, Col: 3, Val: 1}, {Row: 1, Col: 7, Val: 2}})
	blocks := m.SplitRows(p)
	blocks[2] = nil
	blocks[3] = nil
	got := MergeRowDisjoint(p, blocks, n)
	if !got.Equal(m) {
		t.Fatal("merge with nil trailing blocks lost shard-0 rows")
	}
}

func TestGMulBlockedBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	th := Thresholds{}
	for trial := 0; trial < 4; trial++ {
		n := 20 + rng.Intn(60)
		a := randMatrix(rng, n, 0.08)
		b := randMatrix(rng, n, 0.08)
		for _, fn := range []string{PartitionHash, PartitionRange} {
			for _, k := range []int{1, 2, 4, 7} {
				p, err := NewPartition(k, fn, n)
				if err != nil {
					t.Fatal(err)
				}

				// Integer semiring.
				ia, ib := GLift[int64](IntRing{}, a), GLift[int64](IntRing{}, b)
				want := GMulThresh(IntRing{}, ia, ib, th)
				got, stats := GMulBlocked(IntRing{}, ia, ib, p, th)
				if !gEqual(got, want) {
					t.Fatalf("int %s/%d n=%d: blocked product diverges from monolithic", fn, k, n)
				}
				if stats.LocalNNZ+stats.CrossShardNNZ != int64(want.NNZ()) {
					t.Fatalf("%s/%d: local %d + cross %d != nnz %d",
						fn, k, stats.LocalNNZ, stats.CrossShardNNZ, want.NNZ())
				}
				if k == 1 {
					if stats.Blocks != 1 || stats.CrossShardNNZ != 0 {
						t.Fatalf("trivial partition stats = %+v, want single local block", stats)
					}
				} else if stats.Blocks+stats.SkippedEmpty != k {
					t.Fatalf("%s/%d: blocks %d + skipped %d != K", fn, k, stats.Blocks, stats.SkippedEmpty)
				}

				// Counting semiring.
				ca, cb := GLift[int64](CountRing{}, a), GLift[int64](CountRing{}, b)
				cwant := GMulThresh(CountRing{}, ca, cb, th)
				cgot, _ := GMulBlocked(CountRing{}, ca, cb, p, th)
				if !gEqual(cgot, cwant) {
					t.Fatalf("count %s/%d n=%d: blocked product diverges", fn, k, n)
				}

				// Witness semiring: provenance annotations must survive the
				// scatter-gather byte-for-byte, including entries whose
				// endpoints live on different shards.
				wa, wb := GLift[Witness](WitnessRing{}, a), GLift[Witness](WitnessRing{}, b)
				wwant := GMulThresh(WitnessRing{}, wa, wb, th)
				wgot, wstats := GMulBlocked(WitnessRing{}, wa, wb, p, th)
				if !gEqual(wgot, wwant) {
					t.Fatalf("witness %s/%d n=%d: blocked product diverges", fn, k, n)
				}
				if k > 1 && want.NNZ() > 0 && fn == PartitionHash && wstats.CrossShardNNZ == 0 && n > 40 {
					t.Logf("witness %s/%d n=%d: no cross-shard entries (unusual but legal)", fn, k, n)
				}
			}
		}
	}
}

func TestGMulBlockedEmptyShard(t *testing.T) {
	// All entries live in range-shard 0's rows; shards 1..3 contribute
	// empty operand blocks and must be skipped, not multiplied.
	n := 16
	p, _ := NewPartition(4, PartitionRange, n) // chunk 4
	m := New(n, []Triple{
		{Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 2, Val: 1},
		{Row: 2, Col: 3, Val: 1},
	})
	gm := GLift[int64](IntRing{}, m)
	got, stats := GMulBlocked(IntRing{}, gm, gm, p, Thresholds{})
	want := GMulThresh(IntRing{}, gm, gm, Thresholds{})
	if !gEqual(got, want) {
		t.Fatal("empty-shard product diverges from monolithic")
	}
	if stats.SkippedEmpty != 3 {
		t.Fatalf("SkippedEmpty = %d, want 3 (shards 1..3 own no rows)", stats.SkippedEmpty)
	}
	if stats.Blocks != 1 {
		t.Fatalf("Blocks = %d, want 1", stats.Blocks)
	}
}

func TestGMulBlockedCrossShardAccounting(t *testing.T) {
	// Row 0 (shard 0) produces entries in columns owned by shard 1:
	// those are cross-shard results gathered from a remote owner.
	n := 8
	p, _ := NewPartition(2, PartitionRange, n) // chunk 4: rows 0-3 | 4-7
	a := New(n, []Triple{
		{Row: 0, Col: 1, Val: 1}, // shard 0 row
		{Row: 5, Col: 6, Val: 1}, // shard 1 row
	})
	b := New(n, []Triple{
		{Row: 1, Col: 2, Val: 1}, // (0,2): local to shard 0
		{Row: 1, Col: 6, Val: 1}, // (0,6): column owned by shard 1 → cross
		{Row: 6, Col: 7, Val: 1}, // (5,7): local to shard 1
	})
	ga, gb := GLift[int64](IntRing{}, a), GLift[int64](IntRing{}, b)
	got, stats := GMulBlocked(IntRing{}, ga, gb, p, Thresholds{})
	want := GMulThresh(IntRing{}, ga, gb, Thresholds{})
	if !gEqual(got, want) {
		t.Fatal("cross-shard product diverges from monolithic")
	}
	if stats.LocalNNZ != 2 || stats.CrossShardNNZ != 1 {
		t.Fatalf("local/cross = %d/%d, want 2/1", stats.LocalNNZ, stats.CrossShardNNZ)
	}
}

func TestMulBlockedWrapper(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 40
	a, b := randMatrix(rng, n, 0.1), randMatrix(rng, n, 0.1)
	p, _ := NewPartition(4, PartitionHash, n)
	got, stats := a.MulBlocked(b, p, Thresholds{})
	if want := a.Mul(b); !got.Equal(want) {
		t.Fatal("Matrix.MulBlocked diverges from Matrix.Mul")
	}
	if stats.Blocks == 0 {
		t.Fatal("wrapper lost block stats")
	}
}
