package store

import "hash/crc32"

// castagnoli is the CRC-32C table a manifest's checksum uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// A manifest's CRC-32C is folded from its blocks' own (zlib's
// crc32_combine): for texts a and b, crc(a‖b) = x^(8·len(b))·crc(a) ⊕
// crc(b) in GF(2)[x] mod P, the Castagnoli polynomial. Polynomials are
// kept in CRC-32C's reflected bit order, where bit 31 is x^0.

// crcMul returns a·b mod P.
func crcMul(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		if b&1 != 0 {
			b = b>>1 ^ crc32.Castagnoli
		} else {
			b >>= 1
		}
	}
	return p
}

// crcShift returns x^(8n) mod P, the operator crcCombine moves a CRC
// past n bytes by.
func crcShift(n int64) uint32 {
	p, sq := uint32(1)<<31, uint32(1)<<23 // x^0 and x^8
	for ; n != 0; n >>= 1 {
		if n&1 != 0 {
			p = crcMul(sq, p)
		}
		sq = crcMul(sq, sq)
	}
	return p
}

// crcCombine returns the CRC-32C of a‖b from crcA, crcB and shiftB,
// crcShift(len(b)).
func crcCombine(crcA, crcB, shiftB uint32) uint32 { return crcMul(shiftB, crcA) ^ crcB }
