package wire

// This file extends the codec to (id, value) pairs — the parent-resolution
// exchange and the §VI-D "associative values" traffic. A pairs block mirrors
// the id-block layout (scheme byte, uvarint count, payload, CRC32):
//
//	raw    n × (uint32 id, uint64 val), little-endian, input order.
//	delta  pairs sorted by (id, val): uvarint of the first id, then uvarint
//	       gaps to the previous id, each followed by the uvarint value.
//	       Decodes to the sorted permutation of the input multiset.
//
// Values are uvarint-encoded, so callers that pack their payload into the
// low bits (parents.go packs parent<<20|level) compress well; bitmap has no
// pairs analogue. The adaptive mode picks the smaller of the two per block;
// ModeOff writes raw blocks and charges 12 bytes per pair (see wire.go).

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"gcbfs/internal/frontier"
)

// pairsScheme maps a mode to the scheme a pairs block uses for it.
func pairsScheme(mode Mode) Scheme {
	switch mode {
	case ModeOff, ModeRaw:
		return SchemeRaw
	case ModeDelta, ModeBitmap:
		// No pairs bitmap; forced-bitmap ablations degrade to delta, the
		// same fallback the id codec uses for bitmap-hostile blocks.
		return SchemeDelta
	}
	panic(fmt.Sprintf("wire: AppendPairs called with mode %v", mode))
}

// sortedPairsCopy returns pairs ordered by (ID, Val) without mutating the
// input: an allocated copy, radix-sorted. This is the outside caller's path;
// the engine sorts the pair bins it owns in place and encodes them presorted.
func sortedPairsCopy(pairs []frontier.Pair) []frontier.Pair {
	work := make([]frontier.Pair, 2*len(pairs))
	sorted, scratch := work[:len(pairs):len(pairs)], work[len(pairs):]
	copy(sorted, pairs)
	frontier.SortPairs(sorted, &scratch)
	return sorted
}

// deltaPairsPayloadLen returns the delta payload size for sorted pairs.
func deltaPairsPayloadLen(sorted []frontier.Pair) int {
	if len(sorted) == 0 {
		return 0
	}
	size := uvarintLen(uint64(sorted[0].ID)) + uvarintLen(sorted[0].Val)
	for i := 1; i < len(sorted); i++ {
		size += uvarintLen(uint64(sorted[i].ID-sorted[i-1].ID)) + uvarintLen(sorted[i].Val)
	}
	return size
}

// AppendPairs encodes pairs as one block according to mode and appends it to
// dst, returning the extended buffer and the scheme used (raw under ModeOff).
// The input is never mutated.
func AppendPairs(dst []byte, pairs []frontier.Pair, mode Mode) ([]byte, Scheme) {
	return AppendPairsSorted(dst, pairs, mode, false)
}

// AppendPairsSorted is AppendPairs with a pre-sorted hint: when presorted is
// true the caller asserts pairs are already in (ID, Val) order
// (frontier.SortPairs), so the delta path encodes the input directly instead
// of a sorted copy. A true hint on unsorted input would corrupt the delta
// stream.
func AppendPairsSorted(dst []byte, pairs []frontier.Pair, mode Mode, presorted bool) ([]byte, Scheme) {
	scheme := SchemeRaw
	if mode != ModeAdaptive {
		scheme = pairsScheme(mode)
	}
	sorted := pairs
	if !presorted && (mode == ModeAdaptive || scheme == SchemeDelta) {
		sorted = sortedPairsCopy(pairs)
	}
	if mode == ModeAdaptive && deltaPairsPayloadLen(sorted) < 12*len(pairs) {
		scheme = SchemeDelta
	}

	start := len(dst)
	dst = append(dst, byte(scheme))
	dst = binary.AppendUvarint(dst, uint64(len(pairs)))
	switch scheme {
	case SchemeRaw:
		dst = slices.Grow(dst, 12*len(pairs)+crcLen)
		for _, pr := range pairs {
			dst = binary.LittleEndian.AppendUint32(dst, pr.ID)
			dst = binary.LittleEndian.AppendUint64(dst, pr.Val)
		}
	case SchemeDelta:
		prev := uint32(0)
		for i, pr := range sorted {
			if i == 0 {
				dst = binary.AppendUvarint(dst, uint64(pr.ID))
			} else {
				dst = binary.AppendUvarint(dst, uint64(pr.ID-prev))
			}
			prev = pr.ID
			dst = binary.AppendUvarint(dst, pr.Val)
		}
	}
	sum := crc32.Checksum(dst[start:], crcTable)
	dst = binary.LittleEndian.AppendUint32(dst, sum)
	return dst, scheme
}

// DecodePairs parses one pairs block at the start of buf, returning the
// decoded pairs, the bytes consumed, and the scheme. Corruption in any form
// yields an error, never silently wrong pairs.
func DecodePairs(buf []byte) ([]frontier.Pair, int, Scheme, error) {
	return decodePairsInto(buf, nil)
}

// decodePairsInto is DecodePairs writing over dst's backing array.
func decodePairsInto(buf []byte, dst []frontier.Pair) ([]frontier.Pair, int, Scheme, error) {
	if len(buf) < 1+1+crcLen {
		return nil, 0, 0, corruptf("wire: pairs block truncated (%d bytes)", len(buf))
	}
	scheme := Scheme(buf[0])
	if scheme != SchemeRaw && scheme != SchemeDelta {
		return nil, 0, 0, corruptf("wire: unknown pairs scheme byte %d", buf[0])
	}
	off := 1
	count, k := binary.Uvarint(buf[off:])
	if k <= 0 {
		return nil, 0, 0, corruptf("wire: bad pair count varint")
	}
	off += k
	body := len(buf) - off - crcLen
	if body < 0 {
		return nil, 0, 0, corruptf("wire: pairs block truncated before checksum")
	}
	n := int(count)
	pairs := slices.Grow(dst[:0], max(0, min(n, body)))

	switch scheme {
	case SchemeRaw:
		if count > uint64(body)/12 {
			return nil, 0, 0, corruptf("wire: raw pairs block truncated (%d pairs, %d payload bytes)", count, body)
		}
		for i := 0; i < n; i++ {
			pairs = append(pairs, frontier.Pair{
				ID:  binary.LittleEndian.Uint32(buf[off:]),
				Val: binary.LittleEndian.Uint64(buf[off+4:]),
			})
			off += 12
		}
	case SchemeDelta:
		if count > uint64(body)/2 {
			return nil, 0, 0, corruptf("wire: delta pairs block truncated (%d pairs, %d payload bytes)", count, body)
		}
		prev := uint64(0)
		for i := 0; i < n; i++ {
			gap, k := binary.Uvarint(buf[off:])
			if k <= 0 || off+k+crcLen > len(buf) {
				return nil, 0, 0, corruptf("wire: delta pairs block truncated at pair %d/%d", i, n)
			}
			off += k
			if gap > 1<<32-1 {
				return nil, 0, 0, corruptf("wire: pair id gap %d overflows uint32", gap)
			}
			if i > 0 {
				gap += prev
			}
			if gap > 1<<32-1 {
				return nil, 0, 0, corruptf("wire: pair id %d overflows uint32", gap)
			}
			prev = gap
			val, k := binary.Uvarint(buf[off:])
			if k <= 0 || off+k+crcLen > len(buf) {
				return nil, 0, 0, corruptf("wire: delta pairs value truncated at pair %d/%d", i, n)
			}
			off += k
			pairs = append(pairs, frontier.Pair{ID: uint32(gap), Val: val})
		}
	}

	if off+crcLen > len(buf) {
		return nil, 0, 0, corruptf("wire: pairs block truncated before checksum")
	}
	want := binary.LittleEndian.Uint32(buf[off:])
	if got := crc32.Checksum(buf[:off], crcTable); got != want {
		return nil, 0, 0, corruptf("wire: pairs checksum mismatch (got %08x, want %08x)", got, want)
	}
	return pairs, off + crcLen, scheme, nil
}

// AppendPairsRank encodes one pairs block per destination GPU slot into a
// single rank-to-rank message appended to buf, so a caller can reuse its
// message buffer across queries; presorted asserts every slot is in
// ascending ID order (see AppendPairsSorted; the delta stream needs no more,
// (ID, Val) order is merely canonical). With w > 0 each pair carries a w-word
// lane set — the sweep's "in which of my K trees": lanes[s] holds slot s's
// sets in pair order, and every pairs block is followed by the record codec's
// mask section over them, so the pairs must already be in the order they are
// sent in. w = 0 is the single-tree message and takes no lanes. Stats cover
// the appended message under mode's charging rule; RawBytes counts the
// fixed-width 12+8w bytes per pair.
func AppendPairsRank(buf []byte, slots [][]frontier.Pair, lanes [][]uint64, w int, mode Mode, presorted bool) ([]byte, Stats) {
	if w > 0 && !presorted && mode != ModeOff && mode != ModeRaw {
		panic("wire: a sorting codec would reorder the pairs away from their lane sets")
	}
	var st Stats
	start := len(buf)
	for s, pairs := range slots {
		var scheme Scheme
		buf, scheme = AppendPairsSorted(buf, pairs, mode, presorted)
		if w > 0 {
			buf = appendMaskSection(buf, lanes[s], len(pairs), w, chooseMaskScheme(lanes[s], len(pairs), w, mode), 0)
		}
		st.RawBytes += int64(12+8*w) * int64(len(pairs))
		st.Selected[scheme]++
	}
	st.EncodedBytes = int64(len(buf) - start)
	return buf, st.charged(mode)
}

// DecodePairsRankInto parses an AppendPairsRank message of len(into) slots of
// w-word lane sets, overwriting each into[s] — and lanesInto[s], when w > 0 —
// in place (capacity reused).
func DecodePairsRankInto(buf []byte, into [][]frontier.Pair, lanesInto [][]uint64, w int) error {
	off := 0
	for s := range into {
		pairs, n, _, err := decodePairsInto(buf[off:], into[s])
		if err != nil {
			return fmt.Errorf("wire: pairs slot %d: %w", s, err)
		}
		into[s] = pairs
		off += n
		if w == 0 {
			continue
		}
		lanes, n, err := decodeMaskSection(buf[off:], len(pairs), w, lanesInto[s][:0], 0)
		if err != nil {
			return fmt.Errorf("wire: pairs slot %d lanes: %w", s, err)
		}
		lanesInto[s] = lanes
		off += n
	}
	if off != len(buf) {
		return corruptf("wire: %d trailing bytes after %d pairs slots", len(buf)-off, len(into))
	}
	return nil
}
