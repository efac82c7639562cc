package store

import (
	"hash/crc32"
	"math/rand"
	"testing"
)

// foldCRC cuts text into blocks of the given lengths, clamped to what
// is left, plus one block of the rest, and folds their CRC-32Cs as
// writeCheckpoint folds a manifest's.
func foldCRC(text []byte, lengths []int) uint32 {
	var crc uint32
	fold := func(b []byte) { crc = crcCombine(crc, crc32.Checksum(b, castagnoli), crcShift(int64(len(b)))) }
	for _, l := range lengths {
		l = min(l, len(text))
		fold(text[:l])
		text = text[l:]
	}
	fold(text)
	return crc
}

// TestCRCFoldMatchesUpdate: for random texts cut at random into blocks,
// empty and one-byte blocks and a block of a megabyte among them, the
// blocks' CRC-32Cs folded by crcCombine equal crc32.Update over the
// whole text.
func TestCRCFoldMatchesUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		size := rng.Intn(4096)
		if trial == 0 {
			size = 1 << 20
		}
		text := make([]byte, size)
		rng.Read(text)
		var lengths []int
		for i := rng.Intn(12); i > 0; i-- {
			switch rng.Intn(4) {
			case 0:
				lengths = append(lengths, 0)
			case 1:
				lengths = append(lengths, 1)
			default:
				lengths = append(lengths, rng.Intn(size+1))
			}
		}
		if got, want := foldCRC(text, lengths), crc32.Update(0, castagnoli, text); got != want {
			t.Fatalf("trial %d: %d bytes cut %v fold to CRC-32C %08x, want %08x", trial, size, lengths, got, want)
		}
	}
}

// FuzzCRCFold: text cut into blocks whose lengths are the bytes of
// cuts, then the rest, folds to crc32.Update's CRC-32C of the whole.
func FuzzCRCFold(f *testing.F) {
	f.Add([]byte("node\tpaper1\tpaper\n"), []byte{0, 1, 5})
	f.Add([]byte{}, []byte{0, 0})
	f.Add([]byte{0xff}, []byte{1})
	f.Fuzz(func(t *testing.T, text, cuts []byte) {
		lengths := make([]int, len(cuts))
		for i, c := range cuts {
			lengths[i] = int(c)
		}
		if got, want := foldCRC(text, lengths), crc32.Update(0, castagnoli, text); got != want {
			t.Fatalf("%d bytes cut %v fold to CRC-32C %08x, want %08x", len(text), lengths, got, want)
		}
	})
}
