package wire

// This file extends the codec to (id, value) pairs — the parent-resolution
// exchange and the §VI-D "associative values" traffic. A pairs block mirrors
// the id-block layout (scheme byte, uvarint count, payload, CRC-32C), and both
// schemes keep the pairs in their input order, so nothing sorts them and a
// lane-set column beside them stays aligned:
//
//	raw     n × (uint32 id, uint64 val), little-endian.
//	packed  three uint32 columns — ID, Val's high word, Val's low word — each
//	        a frame of reference: value − base in w ≤ 32 bits per pair. When
//	        n > 0: a uvarint width header (w_ID | w_high<<6 | w_low<<12),
//	        then per column a uvarint base and ⌈n·w/8⌉ bytes of offsets,
//	        little-endian bit order, pair i at bit i·w. Empty when n = 0.
//	        The encoder takes the bit length of a column's range as its width,
//	        widens the ID column until the three widths sum to at least 8
//	        bits — an honest block spends a byte per pair, even on all-equal
//	        pairs — and takes the smallest base that reaches the column's
//	        maximum, max(0, maximum − (2^w − 1)): never above the minimum,
//	        and never so high that base + 2^w − 1 leaves 32 bits, so the
//	        decoder rejects an overflowing frame before it allocates. One
//	        width header rather than a width byte per column saves two
//	        bytes a block, which the one- and two-pair blocks of a small
//	        replay need to stay below the varint delta blocks this scheme
//	        replaced.
//
// The packed size is exact from one min/max pass, so the adaptive mode picks
// the smaller of the two per block at O(1) cost, raw on a tie; each scheme has
// one writer (appendRawPairs, appendPackedPairs). ModeOff writes raw blocks
// and charges 12 bytes per pair (see wire.go). Callers that keep a payload's
// varying part in few bits — parents.go packs parent<<32 | level, so a replay
// block's columns are the destination's local slot, the sender's global id
// and the level — get narrow columns.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"

	"gcbfs/internal/frontier"
)

// pairColumns is the number of uint32 columns a packed block splits a pair
// into: ID, Val>>32 and uint32(Val).
const pairColumns = 3

// packedFrame is one packed column's frame of reference: each of its values
// is base plus a width-bit offset.
type packedFrame struct {
	base  uint32
	width uint8
}

// packedFrames is a packed block's three frames.
type packedFrames [pairColumns]packedFrame

// framePairs makes the one pass over pairs the packed scheme needs: each
// column's minimum and maximum, which fix its frame (see the file comment).
func framePairs(pairs []frontier.Pair) packedFrames {
	var f packedFrames
	if len(pairs) == 0 {
		return f
	}
	lo := [pairColumns]uint32{math.MaxUint32, math.MaxUint32, math.MaxUint32}
	var hi [pairColumns]uint32
	for _, pr := range pairs {
		id, vh, vl := pr.ID, uint32(pr.Val>>32), uint32(pr.Val)
		lo[0], hi[0] = min(lo[0], id), max(hi[0], id)
		lo[1], hi[1] = min(lo[1], vh), max(hi[1], vh)
		lo[2], hi[2] = min(lo[2], vl), max(hi[2], vl)
	}
	sum := 0
	for c := range f {
		f[c].width = uint8(bits.Len32(hi[c] - lo[c]))
		sum += int(f[c].width)
	}
	if sum < 8 {
		f[0].width += uint8(8 - sum)
	}
	for c := range f {
		// The smallest base that reaches the maximum: never above the
		// minimum, never past 2^32 − 2^w, and a short uvarint.
		f[c].base = uint32(max(0, int64(hi[c])-(int64(1)<<f[c].width-1)))
	}
	return f
}

// payloadLen is the packed payload size of n pairs under frames f.
func (f *packedFrames) payloadLen(n int) int {
	if n == 0 {
		return 0
	}
	size := uvarintLen(f.widths())
	for _, c := range f {
		size += uvarintLen(uint64(c.base)) + (n*int(c.width)+7)/8
	}
	return size
}

// widths is the block's width header: the three columns' widths, six bits
// each, the ID column's lowest.
func (f *packedFrames) widths() uint64 {
	return uint64(f[0].width) | uint64(f[1].width)<<6 | uint64(f[2].width)<<12
}

// appendPairs encodes pairs as one block under mode and appends it to dst,
// returning the extended buffer and the scheme written: raw under ModeOff;
// under ModeAdaptive packed when its exact size is below raw's. The block
// decodes to the pairs in their input order; the input is never mutated. seed
// is the running CRC the block's checksum starts from (see appendIDs): zero
// for a block that stands alone, the presence word's inside a rank message.
func appendPairs(dst []byte, pairs []frontier.Pair, mode Mode, seed uint32) ([]byte, Scheme) {
	if mode != ModeOff {
		if f := framePairs(pairs); f.payloadLen(len(pairs)) < 12*len(pairs) {
			return appendPackedPairs(dst, pairs, &f, seed), SchemePacked
		}
	}
	return appendRawPairs(dst, pairs, seed), SchemeRaw
}

// appendRawPairs writes pairs as a raw block.
func appendRawPairs(dst []byte, pairs []frontier.Pair, seed uint32) []byte {
	start := len(dst)
	dst = slices.Grow(dst, blockLen(len(pairs), 12*len(pairs)))
	dst = appendHeader(dst, SchemeRaw, len(pairs))
	for _, pr := range pairs {
		dst = binary.LittleEndian.AppendUint32(dst, pr.ID)
		dst = binary.LittleEndian.AppendUint64(dst, pr.Val)
	}
	return appendCRC(dst, start, seed)
}

// appendPackedPairs writes pairs as a packed block under frames f, which
// must be framePairs(pairs).
func appendPackedPairs(dst []byte, pairs []frontier.Pair, f *packedFrames, seed uint32) []byte {
	n := len(pairs)
	start := len(dst)
	dst = slices.Grow(dst, blockLen(n, f.payloadLen(n)))
	dst = appendHeader(dst, SchemePacked, n)
	if n > 0 {
		dst = binary.AppendUvarint(dst, f.widths())
		for c := range f {
			dst = appendColumn(dst, pairs, c, f[c])
		}
	}
	return appendCRC(dst, start, seed)
}

// bitWriter packs values LSB-first into whole bytes through a 64-bit
// accumulator, flushing 32 bits at a time; with widths of at most 32 bits the
// accumulator never holds more than 63.
type bitWriter struct {
	dst  []byte
	acc  uint64
	have uint
}

func (b *bitWriter) put(v uint32, w uint) {
	b.acc |= uint64(v) << b.have
	if b.have += w; b.have >= 32 {
		b.dst = binary.LittleEndian.AppendUint32(b.dst, uint32(b.acc))
		b.acc >>= 32
		b.have -= 32
	}
}

// flush writes the bits still held, padded with zeros to a whole byte.
func (b *bitWriter) flush() []byte {
	for ; b.have > 0; b.have -= min(8, b.have) {
		b.dst = append(b.dst, byte(b.acc))
		b.acc >>= 8
	}
	return b.dst
}

// appendColumn appends column c of pairs under frame f: its base and the
// offsets.
func appendColumn(dst []byte, pairs []frontier.Pair, c int, f packedFrame) []byte {
	dst = binary.AppendUvarint(dst, uint64(f.base))
	w := uint(f.width)
	if w == 0 {
		return dst
	}
	b := bitWriter{dst: dst}
	switch c {
	case 0:
		for _, pr := range pairs {
			b.put(pr.ID-f.base, w)
		}
	case 1:
		for _, pr := range pairs {
			b.put(uint32(pr.Val>>32)-f.base, w)
		}
	default:
		for _, pr := range pairs {
			b.put(uint32(pr.Val)-f.base, w)
		}
	}
	return b.flush()
}

// readFrames parses a packed block's width header and column bases for n
// pairs, the header at buf[off], and returns the frames, where each column's
// bits start and where the payload ends (at off when n = 0: no header). A
// width header past 18 bits, a width above 32, a base or a base plus its
// largest offset above 32 bits, or widths that sum below 8 are corrupt.
func readFrames(buf []byte, off, n int) (f packedFrames, at [pairColumns]int, end int, err error) {
	if n == 0 {
		return f, at, off, nil
	}
	widths, k := binary.Uvarint(buf[off:])
	if k <= 0 || widths >= 1<<(6*pairColumns) {
		return f, at, 0, corruptf("wire: bad packed width header")
	}
	off += k
	sum := 0
	for c := range f {
		base, k := binary.Uvarint(buf[off:])
		if k <= 0 {
			return f, at, 0, corruptf("wire: packed column %d base truncated", c)
		}
		off += k
		w := uint8(widths >> (6 * c) & 63)
		if w > 32 {
			return f, at, 0, corruptf("wire: packed column %d width %d above 32", c, w)
		}
		if base > math.MaxUint32 || base+(uint64(1)<<w-1) > math.MaxUint32 {
			return f, at, 0, corruptf("wire: packed column %d base %d + %d-bit offset overflows uint32", c, base, w)
		}
		f[c] = packedFrame{base: uint32(base), width: w}
		at[c] = off
		off += (n*int(w) + 7) / 8
		if off > len(buf) {
			return f, at, 0, corruptf("wire: packed column %d truncated", c)
		}
		sum += int(w)
	}
	if sum < 8 {
		return f, at, 0, corruptf("wire: packed widths sum to %d bits, below a byte", sum)
	}
	return f, at, off, nil
}

// unpackColumn writes column c of out from the bits at buf[at:] under frame
// f: one little-endian word load per value, the last few of a block at the
// end of buf from a zero-padded copy of what is left.
func unpackColumn(out []frontier.Pair, buf []byte, at, c int, f packedFrame) {
	w := uint(f.width)
	if w == 0 {
		unpackRange(out, zeroWord[:], 0, 0, c, f.base)
		return
	}
	// Value i loads buf[at+⌊i·w/8⌋:][:8].
	fast := 0
	if r := len(buf) - 8 - at; r >= 0 {
		fast = min(len(out), (8*(r+1)-1)/int(w)+1)
	}
	unpackRange(out[:fast], buf[at:], 0, w, c, f.base)
	if fast < len(out) {
		var pad [16]byte
		copy(pad[:], buf[at+fast*int(w)/8:])
		unpackRange(out[fast:], pad[:], uint(fast)*w&7, w, c, f.base)
	}
}

// zeroWord is what a zero-width column's values load.
var zeroWord [8]byte

// unpackRange writes column c of out: base plus the w-bit offsets at src's
// bits bit, bit+w, ….
func unpackRange(out []frontier.Pair, src []byte, bit, w uint, c int, base uint32) {
	mask := uint64(1)<<w - 1
	switch c {
	case 0:
		for i := range out {
			out[i].ID = base + uint32(binary.LittleEndian.Uint64(src[bit>>3:])>>(bit&7)&mask)
			bit += w
		}
	case 1:
		for i := range out {
			out[i].Val = uint64(base+uint32(binary.LittleEndian.Uint64(src[bit>>3:])>>(bit&7)&mask)) << 32
			bit += w
		}
	default:
		for i := range out {
			out[i].Val |= uint64(base + uint32(binary.LittleEndian.Uint64(src[bit>>3:])>>(bit&7)&mask))
			bit += w
		}
	}
}

// decodePairsInto parses one pairs block at the start of buf, whose checksum
// started from seed, writing the pairs over dst's backing array, and returns
// them, the bytes consumed and the scheme. Corruption in any form yields an
// error, never silently wrong pairs. Every check — scheme, count against the
// bytes left, frames, length, checksum — runs before dst is grown, so a
// hostile header allocates nothing.
func decodePairsInto(buf []byte, dst []frontier.Pair, seed uint32) ([]frontier.Pair, int, Scheme, error) {
	if len(buf) < 1+1+crcLen {
		return nil, 0, 0, corruptf("wire: pairs block truncated (%d bytes)", len(buf))
	}
	scheme := Scheme(buf[0])
	if scheme != SchemeRaw && scheme != SchemePacked {
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
	// Both schemes spend at least a byte per pair.
	if count > uint64(body) {
		return nil, 0, 0, corruptf("wire: %d pairs in %d payload bytes", count, body)
	}
	n := int(count)
	var f packedFrames
	var at [pairColumns]int
	end := off + 12*n
	if scheme == SchemePacked {
		var err error
		if f, at, end, err = readFrames(buf, off, n); err != nil {
			return nil, 0, 0, err
		}
	}
	if end+crcLen > len(buf) {
		return nil, 0, 0, corruptf("wire: %v pairs block truncated (%d pairs, %d payload bytes)", scheme, n, body)
	}
	want := binary.LittleEndian.Uint32(buf[end:])
	if got := crc32.Update(seed, crcTable, buf[:end]); got != want {
		return nil, 0, 0, corruptf("wire: pairs checksum mismatch (got %08x, want %08x)", got, want)
	}

	pairs := slices.Grow(dst[:0], n)[:n]
	switch scheme {
	case SchemeRaw:
		for i := range pairs {
			pairs[i] = frontier.Pair{
				ID:  binary.LittleEndian.Uint32(buf[off:]),
				Val: binary.LittleEndian.Uint64(buf[off+4:]),
			}
			off += 12
		}
	case SchemePacked:
		for c := range f {
			unpackColumn(pairs, buf, at[c], c, f[c])
		}
	}
	return pairs, end + crcLen, scheme, nil
}

// AppendPairsRank encodes the pairs bound for one rank's GPU slots into a
// single rank-to-rank message appended to buf, so a caller can reuse its
// message buffer across queries: one pairs block per slot that has any, in
// slot order, behind a presence word when some slot has none — the byte
// pairsPresence, then ⌈len(slots)/8⌉ bytes with bit s (byte s/8, bit s%8) set
// when slot s has pairs. An empty slot thus costs a bit, not a 6-byte empty
// block, and a message whose every slot has pairs carries no presence word at
// all. Behind a presence word every checksum begins from the word's CRC-32C,
// so a flipped presence bit fails the next block's check. With w > 0 each pair
// carries a w-word lane set — the sweep's "in which of my K trees": lanes[s]
// holds slot s's sets in pair order, and every pairs block is followed by the
// record codec's mask section over them, under the same seed; no scheme
// reorders the pairs, so the sets stay aligned. w = 0 is the single-tree
// message and takes no lanes. Stats cover the appended message under mode's
// charging rule; RawBytes counts the fixed-width 12+8w bytes per pair.
func AppendPairsRank(buf []byte, slots [][]frontier.Pair, lanes [][]uint64, w int, mode Mode) ([]byte, Stats) {
	var st Stats
	start := len(buf)
	var seed uint32
	if slices.ContainsFunc(slots, func(prs []frontier.Pair) bool { return len(prs) == 0 }) {
		buf = append(buf, pairsPresence)
		for s0 := 0; s0 < len(slots); s0 += 8 {
			var b byte
			for s := s0; s < min(s0+8, len(slots)); s++ {
				if len(slots[s]) > 0 {
					b |= 1 << (s - s0)
				}
			}
			buf = append(buf, b)
		}
		seed = crc32.Checksum(buf[start:], crcTable)
	}
	for s, pairs := range slots {
		if len(pairs) == 0 {
			continue
		}
		var scheme Scheme
		buf, scheme = appendPairs(buf, pairs, mode, seed)
		if w > 0 {
			buf = appendMaskSection(buf, lanes[s], len(pairs), w, chooseMaskScheme(lanes[s], len(pairs), w, mode), seed)
		}
		st.RawBytes += int64(12+8*w) * int64(len(pairs))
		st.Selected[scheme]++
	}
	st.EncodedBytes = int64(len(buf) - start)
	return buf, st.charged(mode)
}

// pairsPresence opens a pairs message's presence word. No scheme byte takes
// the value, so a message that starts with anything else starts with a block.
const pairsPresence = 0xff

// presenceLen is the size of a presence word's bitmap over slots slots.
func presenceLen(slots int) int { return (slots + 7) / 8 }

// DecodePairsRankInto parses an AppendPairsRank message of len(into) slots of
// w-word lane sets, overwriting each into[s] — and lanesInto[s], when w > 0 —
// in place (capacity reused); a slot the presence word marks absent decodes
// empty.
func DecodePairsRankInto(buf []byte, into [][]frontier.Pair, lanesInto [][]uint64, w int) error {
	off, seed := 0, uint32(0)
	var presence []byte
	if len(buf) > 0 && buf[0] == pairsPresence {
		off = 1 + presenceLen(len(into))
		if len(buf) < off {
			return corruptf("wire: pairs message truncated in its presence word (%d bytes)", len(buf))
		}
		presence = buf[1:off]
		full := true
		for s := range into {
			full = full && presence[s/8]&(1<<(s%8)) != 0
		}
		if extra := len(into) % 8; full || (extra != 0 && presence[len(presence)-1]>>extra != 0) {
			return corruptf("wire: pairs presence word %x names no empty slot of %d", presence, len(into))
		}
		seed = crc32.Checksum(buf[:off], crcTable)
	}
	for s := range into {
		into[s] = into[s][:0]
		if w > 0 {
			lanesInto[s] = lanesInto[s][:0]
		}
		if presence != nil && presence[s/8]&(1<<(s%8)) == 0 {
			continue
		}
		pairs, n, _, err := decodePairsInto(buf[off:], into[s], seed)
		if err != nil {
			return fmt.Errorf("wire: pairs slot %d: %w", s, err)
		}
		if len(pairs) == 0 {
			return corruptf("wire: pairs slot %d is present and empty", s)
		}
		into[s] = pairs
		off += n
		if w == 0 {
			continue
		}
		lanes, n, err := decodeMaskSection(buf[off:], len(pairs), w, lanesInto[s], seed)
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
