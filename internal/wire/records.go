package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"slices"
)

// Record codec for the multi-source shared sweep (MS-BFS): the sweep's
// frontier records are (vertex id, query-set mask) pairs, where the mask is a
// w-word bitset saying which of the K concurrent queries reached the vertex.
// One encoded record block carries the records destined for one GPU slot —
// alone (AppendRecords), or as one slot of a rank message or butterfly
// section with lane sets (AppendRankSection, AppendSections with w > 0), where
// the mask section's checksum is seeded like its id block's:
//
//	id block        exactly the single-query block format (wire.go): scheme
//	                byte, uvarint n, payload, CRC-32C. Ids are sorted ascending
//	                and duplicate-free (the sweep merges same-id records
//	                sender-side by OR-ing their masks), so the delta and
//	                bitmap schemes apply unchanged.
//	mask section    1 byte mask scheme, then the per-record masks in id
//	                order, then CRC-32C (Castagnoli, little-endian) of the section.
//
// Mask scheme payloads (w = words per record, fixed per sweep):
//
//	MaskRaw     n × w × uint64 little-endian. Right for the dense early
//	            iterations where most queries share the frontier.
//	MaskSparse  per record: uvarint popcount c, then c uvarint bit positions
//	            strictly ascending. Right for the late iterations where each
//	            vertex is reached by a handful of stragglers — and for wide
//	            sweeps (large w) whose raw rows are mostly zero words.
//
// The fixed-width equivalent charged to Stats.RawBytes is n·(4 + 8w) — the
// id convention of the single-query codec extended by the raw mask row — and
// what ModeOff's raw id block plus MaskRaw section is charged in all.
type MaskScheme uint8

const (
	MaskRaw MaskScheme = iota
	MaskSparse

	// NumMaskSchemes bounds per-scheme counters.
	NumMaskSchemes = 2
)

func (s MaskScheme) String() string {
	switch s {
	case MaskRaw:
		return "mask-raw"
	case MaskSparse:
		return "mask-sparse"
	}
	return fmt.Sprintf("maskscheme(%d)", uint8(s))
}

// maskSparsePayloadLen returns the MaskSparse payload size for n records of w
// words each, or, once the count reaches limit, some size ≥ limit: the
// counting stops there.
func maskSparsePayloadLen(masks []uint64, n, w, limit int) int {
	size := 0
	for i := 0; i < n && size < limit; i++ {
		row := masks[i*w : (i+1)*w]
		c := 0
		for _, word := range row {
			c += bits.OnesCount64(word)
		}
		size += uvarintLen(uint64(c))
		for wi, word := range row {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				size += uvarintLen(uint64(wi*64 + b))
				word &= word - 1
			}
		}
	}
	return size
}

// chooseMaskScheme picks the mask encoding: MaskRaw under ModeOff, matching
// its raw id blocks; the smaller of the two under ModeAdaptive. Sparse is
// counted only up to the raw size, where raw has won.
func chooseMaskScheme(masks []uint64, n, w int, mode Mode) MaskScheme {
	if mode == ModeOff {
		return MaskRaw
	}
	if raw := 8 * n * w; maskSparsePayloadLen(masks, n, w, raw) < raw {
		return MaskSparse
	}
	return MaskRaw
}

// appendMaskSection encodes the mask section (scheme byte, payload, CRC) for
// n records of w words each, in id order; seed is the checksum's, as for the
// id block it follows (see appendIDs). It is the writer of both mask schemes.
func appendMaskSection(dst []byte, masks []uint64, n, w int, ms MaskScheme, seed uint32) []byte {
	start := len(dst)
	dst = append(dst, byte(ms))
	switch ms {
	case MaskRaw:
		dst = slices.Grow(dst, 8*n*w+crcLen)
		for i := 0; i < n*w; i++ {
			dst = binary.LittleEndian.AppendUint64(dst, masks[i])
		}
	case MaskSparse:
		for i := 0; i < n; i++ {
			row := masks[i*w : (i+1)*w]
			c := 0
			for _, word := range row {
				c += bits.OnesCount64(word)
			}
			dst = binary.AppendUvarint(dst, uint64(c))
			for wi, word := range row {
				for word != 0 {
					b := bits.TrailingZeros64(word)
					dst = binary.AppendUvarint(dst, uint64(wi*64+b))
					word &= word - 1
				}
			}
		}
	}
	sum := crc32.Update(seed, crcTable, dst[start:])
	return binary.LittleEndian.AppendUint32(dst, sum)
}

// AppendRecords encodes one record block according to mode and appends it to
// dst, returning the extended buffer and the schemes used for the id block
// and the mask section. ids must be sorted ascending and duplicate-free (the
// sweep's sender-side merge guarantees it); masks holds w words per id, in id
// order.
func AppendRecords(dst []byte, ids []uint32, masks []uint64, w int, mode Mode) ([]byte, Scheme, MaskScheme) {
	var idScheme Scheme
	dst, idScheme = appendIDs(dst, ids, mode, HintSorted, nil, 0)
	ms := chooseMaskScheme(masks, len(ids), w, mode)
	return appendMaskSection(dst, masks, len(ids), w, ms, 0), idScheme, ms
}

// DecodeRecordsAppend parses one record block at the start of buf, appending
// the ids to idDst and the masks (w words per record, zero-initialized) to
// maskDst. It returns the extended slices and the bytes consumed. Like the
// single-query decoder, any truncation, unknown scheme, malformed varint,
// out-of-range bit position or checksum mismatch yields an error — a block
// never decodes to wrong records silently. On error the contents of the
// destination slices are unspecified.
func DecodeRecordsAppend(buf []byte, w int, idDst []uint32, maskDst []uint64) ([]uint32, []uint64, int, error) {
	base := len(idDst)
	ids, off, _, err := decodeBlock(buf, func(n int) []uint32 { return slices.Grow(idDst, n) }, 0)
	if err != nil {
		return nil, nil, 0, err
	}
	maskDst, n, err := decodeMaskSection(buf[off:], len(ids)-base, w, maskDst, 0)
	if err != nil {
		return nil, nil, 0, err
	}
	return ids, maskDst, off + n, nil
}

// decodeMaskSection parses the mask section (scheme byte, payload, CRC) of n
// records of w words each at the start of buf, appending the masks
// (zero-initialized) to maskDst, and returns the bytes consumed. seed is the
// running CRC the sender's checksum started from.
func decodeMaskSection(buf []byte, n, w int, maskDst []uint64, seed uint32) ([]uint64, int, error) {
	if 1+crcLen > len(buf) {
		return nil, 0, corruptf("wire: mask section truncated (%d bytes left)", len(buf))
	}
	ms := MaskScheme(buf[0])
	off := 1
	if ms >= NumMaskSchemes {
		return nil, 0, corruptf("wire: unknown mask scheme byte %d", buf[0])
	}
	mbase := len(maskDst)
	maskDst = slices.Grow(maskDst, n*w)
	maskDst = maskDst[:mbase+n*w]
	clear(maskDst[mbase:])
	switch ms {
	case MaskRaw:
		if off+8*n*w+crcLen > len(buf) {
			return nil, 0, corruptf("wire: raw mask section truncated (%d records × %d words)", n, w)
		}
		for i := 0; i < n*w; i++ {
			maskDst[mbase+i] = binary.LittleEndian.Uint64(buf[off:])
			off += 8
		}
	case MaskSparse:
		for i := 0; i < n; i++ {
			c, k := binary.Uvarint(buf[off:])
			if k <= 0 || off+k+crcLen > len(buf) {
				return nil, 0, corruptf("wire: sparse mask truncated at record %d/%d", i, n)
			}
			off += k
			if c > uint64(64*w) {
				return nil, 0, corruptf("wire: sparse mask popcount %d exceeds %d bits", c, 64*w)
			}
			row := maskDst[mbase+i*w : mbase+(i+1)*w]
			prev := -1
			for j := uint64(0); j < c; j++ {
				pos, k := binary.Uvarint(buf[off:])
				if k <= 0 || off+k+crcLen > len(buf) {
					return nil, 0, corruptf("wire: sparse mask truncated at record %d bit %d", i, j)
				}
				off += k
				if pos >= uint64(64*w) || int(pos) <= prev {
					return nil, 0, corruptf("wire: sparse mask bit %d out of order or range", pos)
				}
				prev = int(pos)
				row[pos/64] |= 1 << (pos % 64)
			}
		}
	}
	if off+crcLen > len(buf) {
		return nil, 0, corruptf("wire: mask section truncated before checksum")
	}
	want := binary.LittleEndian.Uint32(buf[off:])
	if got := crc32.Update(seed, crcTable, buf[:off]); got != want {
		return nil, 0, corruptf("wire: mask checksum mismatch (got %08x, want %08x)", got, want)
	}
	return maskDst, off + crcLen, nil
}
