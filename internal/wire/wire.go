// Package wire implements the frontier-exchange codec used by the inter-rank
// normal-vertex exchange (§V-B). The exchanged payloads are lists of 32-bit
// destination-local vertex ids. The codec has two modes. ModeOff is the
// paper's fixed-width packing. ModeAdaptive writes each block in the smallest
// of three schemes by exact size: a raw array (scattered, unordered ids), a
// sorted varint delta stream (clustered ids) or a dense bitmap (a large
// fraction of the destination's id space) — the communication-volume
// reduction that Romera-style frontier compression and ButterFly BFS both
// exploit.
//
// # Wire format
//
// Every rank message — ids, (id, query-set) records, (id, value) pairs, in
// both modes — is made of these blocks and nothing else, so every byte a rank
// receives sits under a checksum and every decode error is born wrapping
// ErrCorrupt. One encoded block carries the ids destined for one GPU slot:
//
//	offset  size      field
//	0       1         scheme byte: 0 = raw, 1 = delta, 2 = bitmap
//	                  (3 = packed is the pairs codec's, pairs.go)
//	1       uvarint   n, the number of ids the block decodes to
//	…       payload   scheme-specific body (below)
//	end-4   4         CRC-32C (Castagnoli, little-endian) of every preceding
//	                  byte of the block — corruption detection
//
// The checksum is Castagnoli's polynomial rather than IEEE's because the
// host computes it in hardware (SSE4.2, ARMv8 CRC), and most blocks are
// short: on a 2-vCPU Xeon a 10-byte block's checksum costs 14.5 ns against
// 37.8 with IEEE, a 200-byte one 45 against 58, a 4 KB one about the same.
//
// Scheme payloads:
//
//	raw     n × uint32 little-endian. Exact order and multiplicity of the
//	        input are preserved.
//	delta   the input sorted ascending: uvarint of the first id, then n−1
//	        uvarint gaps to the previous id (a gap of 0 encodes a
//	        duplicate). Decodes to the sorted permutation of the input —
//	        multiplicity preserved, order canonicalized.
//	bitmap  uvarint word count w, then w × uint64 little-endian forming a
//	        bitset over ids [0, 64·w). Set semantics: duplicates collapse.
//	        The adaptive mode only picks bitmap for duplicate-free input,
//	        so adaptive encoding always round-trips the multiset.
//
// Each scheme has one unexported writer (appendRaw, appendDelta,
// appendBitmap); an encoder makes one choice — ModeOff raw, ModeAdaptive the
// smallest by exact size (smallestScheme) — and calls it.
//
// A rank-to-rank message (Selector.AppendRankSection, DecodeRankLanesInto) is
// gpusPerRank blocks back to back, one per destination GPU slot — each
// followed by its mask section when the ids carry a sweep's w-word lane sets
// (records.go). A butterfly hop message frames several such payloads
// (sections.go).
//
// ModeOff is not a second format: it writes raw blocks (input order kept,
// nothing sorted) and differs from an adaptive raw block only in what Stats
// charge for it. The paper counts 4·|Enn| bytes and no codec kernel, so under
// ModeOff RawBytes == EncodedBytes == the fixed-width payload (4 B per id,
// 4+8w B per record, 12 B per pair), the block framing uncharged, and
// Selected stays zero. Receivers call the one decoder whatever the mode and
// account a ModeOff arrival as the ids it decoded to.
//
// # Sort contract
//
// Ascending order is the codec's canonical form: delta and bitmap bytes are
// a function of the id multiset alone, and a raw block's length is. Whoever
// owns the ids sorts them, once, where the block is born, with
// frontier.SortIDs and its own scatter scratch, and says so with a Hint
// (AppendRank's sorted row, a Section's hint row); the encoders then only
// read. Pairs have no canonical order: both pairs schemes keep the input
// order, so nobody sorts a pairs block (pairs.go). The engine goes
// one step further: with a codec active it stages every slot as a set —
// sorted in place in its send bins and compacted there (HintSet) — so the
// encoder's duplicate scan goes too and a dense slot is bitmap-eligible. With
// the codec off (ModeOff) nothing needs the order: senders skip the sort and
// raw blocks carry the ids, repeats and all, as the kernels left them.
// Decoders hand the hint back: bitmap blocks decode to a set by construction,
// and DecodeSectionsScratch scans delta blocks (ascending, a zero gap for
// every repeat) and raw blocks (the sender's order) rather than trusting the
// sender, so a relay unions what it forwards (frontier.MergeSortedArena; a
// sweep's records, always sets, frontier.MergeRecords) and never sorts it
// again. Without a hint an encoder never touches the caller's slice: it sorts
// a copy, in the Selector's reusable scratch when there is one (one buffer
// per rank, sized by its largest single block) and in a fresh allocation
// otherwise. The codec itself stays a multiset codec — a hintless or
// HintSorted block round-trips every repeat; sets are what the engine chooses
// to feed it.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"slices"

	"gcbfs/internal/frontier"
)

// ErrCorrupt is the sentinel wrapped by every decoder error: truncation,
// unknown scheme bytes, malformed varints, out-of-range counts and checksum
// mismatches all satisfy errors.Is(err, ErrCorrupt). Consumers use it to
// classify a failed exchange as payload corruption — the retryable fault
// class — without matching message strings.
var ErrCorrupt = errors.New("corrupt payload")

// corruptf builds a decoder error wrapping ErrCorrupt.
func corruptf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrCorrupt)...)
}

// Scheme identifies one block encoding.
type Scheme uint8

const (
	SchemeRaw Scheme = iota
	SchemeDelta
	SchemeBitmap
	// SchemePacked is the pairs codec's bit-packed block (pairs.go); no id or
	// record block carries it.
	SchemePacked

	// NumSchemes bounds per-scheme counters.
	NumSchemes = 4
)

func (s Scheme) String() string {
	switch s {
	case SchemeRaw:
		return "raw"
	case SchemeDelta:
		return "delta"
	case SchemeBitmap:
		return "bitmap"
	case SchemePacked:
		return "packed"
	}
	return fmt.Sprintf("scheme(%d)", uint8(s))
}

// Mode is the codec policy a caller selects: the paper's fixed-width packing
// or adaptive, the smallest scheme per block.
type Mode int

const (
	// ModeOff is the paper's fixed-width packing: raw blocks, charged as the
	// fixed-width payload alone with no codec kernel (see "Wire format").
	ModeOff Mode = iota
	// ModeAdaptive picks the smallest of the three schemes per block, and
	// the smaller of raw and sparse per mask section: a pure function of
	// the block, whatever was encoded before it.
	ModeAdaptive
)

func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeAdaptive:
		return "adaptive"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode converts a CLI/Config spelling into a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "off":
		return ModeOff, nil
	case "adaptive":
		return ModeAdaptive, nil
	}
	return ModeOff, fmt.Errorf("wire: unknown compression mode %q (want off or adaptive)", s)
}

// Hint is what the caller of an encoder vouches for about one slot's ids, and
// what a decoder reports about the ids it produced. A hint stronger than the
// data corrupts the block (a delta stream of an unsorted list, a bitmap that
// swallows a repeat), so it is plumbed from whoever established it — the
// stage that sorted and compacted the slot, a union of two sets, or a decode
// that checked — and never guessed.
type Hint uint8

const (
	// HintNone: any order, any multiplicity. The encoder sorts a copy.
	HintNone Hint = iota
	// HintSorted: ascending, repeats allowed. The encoder only reads, and
	// scans for repeats before it may pick a bitmap.
	HintSorted
	// HintSet: strictly ascending — a set. No sort, no scan.
	HintSet
)

// sortedHint is the Hint a presorted bool stands for.
func sortedHint(presorted bool) Hint {
	if presorted {
		return HintSorted
	}
	return HintNone
}

// hintOf inspects decoded ids: a relay may union only what was checked.
func hintOf(ids []uint32) Hint {
	h := HintSet
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			if ids[i] < ids[i-1] {
				return HintNone
			}
			h = HintSorted
		}
	}
	return h
}

// Stats accounts one or more encode calls: the fixed-width byte equivalent
// (4 bytes per id, the paper's 4·|Enn| convention; 12 bytes per pair for the
// pairs codec), the bytes actually produced (headers and checksums included)
// and per-scheme block counts. Under ModeOff the fixed-width equivalent is all
// that is charged (see charged).
type Stats struct {
	RawBytes     int64
	EncodedBytes int64
	Selected     [NumSchemes]int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.RawBytes += other.RawBytes
	s.EncodedBytes += other.EncodedBytes
	for i := range s.Selected {
		s.Selected[i] += other.Selected[i]
	}
}

// charged applies mode's charging rule to the accounting of a message just
// encoded: a codec mode is charged what it produced, ModeOff the fixed-width
// payload alone — the paper's convention, under which the block framing is
// not traffic and no scheme was chosen because no codec kernel ran.
func (s Stats) charged(mode Mode) Stats {
	if mode == ModeOff {
		return Stats{RawBytes: s.RawBytes, EncodedBytes: s.RawBytes}
	}
	return s
}

const crcLen = 4

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// uvarintLen returns the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	if v == 0 {
		return 1
	}
	return (bits.Len64(v) + 6) / 7
}

// sortedCopy returns ids sorted ascending (a copy; input is not mutated)
// and whether the sorted sequence is duplicate-free. The copy and the radix
// sort's scatter space are the two halves of one 2·len(ids) buffer: a non-nil
// buf supplies it (grown as needed and written back), so repeat callers — a
// Selector encoding block after block — sort without allocating; the sorted
// view must then not outlive the encode that requested it.
func sortedCopy(ids []uint32, buf *[]uint32) (sorted []uint32, unique bool) {
	n := len(ids)
	if buf == nil {
		buf = new([]uint32)
	}
	if cap(*buf) < 2*n {
		*buf = make([]uint32, 2*n)
	}
	work := (*buf)[:2*n]
	sorted, scratch := work[:n:n], work[n:]
	copy(sorted, ids)
	frontier.SortIDs(sorted, &scratch)
	return sorted, isUnique(sorted)
}

// isUnique reports whether a sorted id list is duplicate-free.
func isUnique(sorted []uint32) bool {
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return false
		}
	}
	return true
}

// sortedView returns a sorted view of ids plus its uniqueness. A hinted input
// is used directly; HintSorted leaves the linear duplicate scan, HintSet (the
// engine stages every slot as a set and only unions afterwards) nothing.
func sortedView(ids []uint32, hint Hint, buf *[]uint32) ([]uint32, bool) {
	switch hint {
	case HintSet:
		return ids, true
	case HintSorted:
		return ids, isUnique(ids)
	}
	return sortedCopy(ids, buf)
}

// deltaPayloadLen returns the payload size of the delta scheme for a sorted
// id list.
func deltaPayloadLen(sorted []uint32) int {
	if len(sorted) == 0 {
		return 0
	}
	size := uvarintLen(uint64(sorted[0]))
	for i := 1; i < len(sorted); i++ {
		size += uvarintLen(uint64(sorted[i] - sorted[i-1]))
	}
	return size
}

// bitmapPayloadLen returns the payload size of the bitmap scheme for a
// sorted id list (word count header plus the words themselves).
func bitmapPayloadLen(sorted []uint32) int {
	if len(sorted) == 0 {
		return uvarintLen(0)
	}
	words := int(sorted[len(sorted)-1])/64 + 1
	return uvarintLen(uint64(words)) + 8*words
}

// blockLen returns the full block size for a payload of the given length.
func blockLen(n int, payload int) int {
	return 1 + uvarintLen(uint64(n)) + payload + crcLen
}

// smallestScheme returns the scheme the adaptive mode writes a sorted id list
// in and that scheme's payload size: the smallest of raw, delta and — for a
// set — bitmap, the earlier on a tie.
func smallestScheme(sorted []uint32, unique bool) (Scheme, int) {
	scheme, size := SchemeRaw, 4*len(sorted)
	if d := deltaPayloadLen(sorted); d < size {
		scheme, size = SchemeDelta, d
	}
	if unique {
		if b := bitmapPayloadLen(sorted); b < size {
			scheme, size = SchemeBitmap, b
		}
	}
	return scheme, size
}

// appendIDs encodes ids as one block under mode and appends it to dst,
// returning the extended buffer and the scheme written: raw under ModeOff,
// the smallest scheme under ModeAdaptive. hint is what the caller vouches for
// about ids; sortBuf is an optional sort scratch (see sortedCopy) — the
// Selector threads its per-rank buffer through here so unsorted blocks stop
// allocating their canonical view; seed is the running CRC the block's
// checksum starts from: zero for a block that stands alone, the destination
// rank for a block inside a butterfly section (sectionSeed).
func appendIDs(dst []byte, ids []uint32, mode Mode, hint Hint, sortBuf *[]uint32, seed uint32) ([]byte, Scheme) {
	if mode == ModeOff {
		return appendRaw(dst, ids, seed), SchemeRaw
	}
	sorted, unique := sortedView(ids, hint, sortBuf)
	scheme, _ := smallestScheme(sorted, unique)
	switch scheme {
	case SchemeDelta:
		return appendDelta(dst, sorted, seed), scheme
	case SchemeBitmap:
		return appendBitmap(dst, sorted, seed), scheme
	}
	return appendRaw(dst, ids, seed), scheme
}

// appendHeader starts a block: its scheme byte and count.
func appendHeader(dst []byte, scheme Scheme, n int) []byte {
	dst = append(dst, byte(scheme))
	return binary.AppendUvarint(dst, uint64(n))
}

// appendCRC closes the block that starts at dst[start]: the checksum of its
// bytes, begun from seed.
func appendCRC(dst []byte, start int, seed uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, crc32.Update(seed, crcTable, dst[start:]))
}

// appendRaw writes ids as a raw block, in their order, repeats and all.
func appendRaw(dst []byte, ids []uint32, seed uint32) []byte {
	start := len(dst)
	dst = slices.Grow(dst, blockLen(len(ids), 4*len(ids)))
	dst = appendHeader(dst, SchemeRaw, len(ids))
	for _, v := range ids {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	return appendCRC(dst, start, seed)
}

// appendDelta writes an ascending id list as a delta block: its first id,
// then the gaps, a zero gap for every repeat.
func appendDelta(dst []byte, sorted []uint32, seed uint32) []byte {
	start := len(dst)
	dst = appendHeader(dst, SchemeDelta, len(sorted))
	if len(sorted) > 0 {
		dst = binary.AppendUvarint(dst, uint64(sorted[0]))
		for i := 1; i < len(sorted); i++ {
			dst = binary.AppendUvarint(dst, uint64(sorted[i]-sorted[i-1]))
		}
	}
	return appendCRC(dst, start, seed)
}

// appendBitmap writes a set — strictly ascending ids — as a bitmap block of
// ⌊max/64⌋ + 1 words.
func appendBitmap(dst []byte, set []uint32, seed uint32) []byte {
	start := len(dst)
	dst = appendHeader(dst, SchemeBitmap, len(set))
	words := 0
	if len(set) > 0 {
		words = int(set[len(set)-1])/64 + 1
	}
	dst = binary.AppendUvarint(dst, uint64(words))
	wordsStart := len(dst)
	dst = slices.Grow(dst, 8*words)[:wordsStart+8*words]
	clear(dst[wordsStart:])
	for _, v := range set {
		off := wordsStart + int(v/64)*8
		w := binary.LittleEndian.Uint64(dst[off:])
		binary.LittleEndian.PutUint64(dst[off:], w|1<<(v%64))
	}
	return appendCRC(dst, start, seed)
}

// decodeBlock parses one block, drawing the id buffer from grow(n) — a
// function returning a slice (existing contents preserved) with capacity for
// n more ids. Per-scheme count bounds run BEFORE grow is called, so a
// corrupt count field can never trigger a huge allocation: raw ids take 4
// bytes each, delta ids at least 1 byte each, bitmap ids at most 64 per
// 8-byte word. seed is the running CRC the sender's checksum started from
// (see appendIDs). Any truncation, trailing garbage inside the block, unknown
// scheme byte or checksum mismatch yields an error — a block never decodes to
// wrong ids silently.
func decodeBlock(buf []byte, grow func(n int) []uint32, seed uint32) ([]uint32, int, Scheme, error) {
	if len(buf) < 1+1+crcLen {
		return nil, 0, 0, corruptf("wire: block truncated (%d bytes)", len(buf))
	}
	scheme := Scheme(buf[0])
	if scheme > SchemeBitmap {
		return nil, 0, 0, corruptf("wire: unknown scheme byte %d", buf[0])
	}
	off := 1
	count, k := binary.Uvarint(buf[off:])
	if k <= 0 {
		return nil, 0, 0, corruptf("wire: bad id count varint")
	}
	off += k
	body := len(buf) - off - crcLen
	if body < 0 {
		return nil, 0, 0, corruptf("wire: block truncated before checksum")
	}
	var ids []uint32
	n := int(count)

	switch scheme {
	case SchemeRaw:
		if count > uint64(body)/4 {
			return nil, 0, 0, corruptf("wire: raw block truncated (%d ids, %d payload bytes)", count, body)
		}
		ids = grow(n)
		for i := 0; i < n; i++ {
			ids = append(ids, binary.LittleEndian.Uint32(buf[off:]))
			off += 4
		}
	case SchemeDelta:
		if count > uint64(body) {
			return nil, 0, 0, corruptf("wire: delta block truncated (%d ids, %d payload bytes)", count, body)
		}
		ids = grow(n)
		prev := uint64(0)
		for i := 0; i < n; i++ {
			v, k := binary.Uvarint(buf[off:])
			if k <= 0 || off+k+crcLen > len(buf) {
				return nil, 0, 0, corruptf("wire: delta block truncated at id %d/%d", i, n)
			}
			off += k
			// Bound the gap before adding prev: a 10-byte uvarint can
			// exceed 2^64-2^32 and wrap the sum back into uint32 range,
			// which would decode to wrong ids instead of an error.
			if v > 1<<32-1 {
				return nil, 0, 0, corruptf("wire: delta gap %d overflows uint32", v)
			}
			if i > 0 {
				v += prev
			}
			if v > 1<<32-1 {
				return nil, 0, 0, corruptf("wire: delta id %d overflows uint32", v)
			}
			prev = v
			ids = append(ids, uint32(v))
		}
	case SchemeBitmap:
		words, k := binary.Uvarint(buf[off:])
		if k <= 0 {
			return nil, 0, 0, corruptf("wire: bad bitmap word count varint")
		}
		off += k
		if words > uint64(len(buf))/8 || off+8*int(words)+crcLen > len(buf) {
			return nil, 0, 0, corruptf("wire: bitmap block truncated (%d words)", words)
		}
		if count > 64*words {
			return nil, 0, 0, corruptf("wire: bitmap id count %d exceeds capacity of %d words", count, words)
		}
		ids = grow(n)
		base := len(ids)
		for w := 0; w < int(words); w++ {
			word := binary.LittleEndian.Uint64(buf[off:])
			off += 8
			for word != 0 {
				bit := bits.TrailingZeros64(word)
				ids = append(ids, uint32(w*64+bit))
				word &= word - 1
			}
		}
		if len(ids)-base != n {
			return nil, 0, 0, corruptf("wire: bitmap population %d does not match id count %d", len(ids)-base, n)
		}
	}

	if off+crcLen > len(buf) {
		return nil, 0, 0, corruptf("wire: block truncated before checksum")
	}
	want := binary.LittleEndian.Uint32(buf[off:])
	if got := crc32.Update(seed, crcTable, buf[:off]); got != want {
		return nil, 0, 0, corruptf("wire: checksum mismatch (got %08x, want %08x)", got, want)
	}
	return ids, off + crcLen, scheme, nil
}

// DecodeRankInto parses a rank message of plain ids (Selector.AppendRank),
// appending each slot's ids to the corresponding entry of into (len(into) is
// the slot count). Each block's count header pre-sizes the grow, so decoding
// into reusable arrival bins allocates nothing on the steady state. Trailing
// bytes after the last block are rejected. On error the contents of into are
// unspecified (the caller abandons the exchange).
func DecodeRankInto(buf []byte, into [][]uint32) error {
	return DecodeRankLanesInto(buf, into, nil, 0)
}

// DecodeRankLanesInto is DecodeRankInto for a message whose ids carry w-word
// lane sets (AppendRankSection; w = 0: plain ids): each slot's lane sets are
// appended to lanesInto[s] beside its ids. A record slot that is not a set is
// corrupt.
func DecodeRankLanesInto(buf []byte, into [][]uint32, lanesInto [][]uint64, w int) error {
	off := 0
	for s := range into {
		base := len(into[s])
		ids, n, _, err := decodeBlock(buf[off:], func(k int) []uint32 { return slices.Grow(into[s], k) }, 0)
		if err != nil {
			return fmt.Errorf("wire: slot %d: %w", s, err)
		}
		into[s] = ids
		off += n
		if w == 0 {
			continue
		}
		if hintOf(ids[base:]) != HintSet {
			return corruptf("wire: slot %d: record ids are not a set", s)
		}
		if lanesInto[s], n, err = decodeMaskSection(buf[off:], len(ids)-base, w, lanesInto[s], 0); err != nil {
			return fmt.Errorf("wire: slot %d lanes: %w", s, err)
		}
		off += n
	}
	if off != len(buf) {
		return corruptf("wire: %d trailing bytes after %d slots", len(buf)-off, len(into))
	}
	return nil
}

// decode parses one section's payload — a block per entry of sec.Slots, each
// followed by the mask section of its ids' w-word lane sets into sec.Masks
// when w > 0 — drawing ids from the arena and lane sets from words (nil
// allocates), and, when sec.Hints is non-nil, writes what each slot's ids are
// known to be: the butterfly exchange unions the slots it relays, and may
// only union sets. A bitmap decodes to a set by construction; a delta stream
// (ascending, a zero gap for every repeat) and a raw block (its sender's
// order — with a codec active the engine stages sets, with it off whatever
// the kernels left) are scanned: checked, not trusted. A record slot must be
// a set. seed is every checksum's seed (see appendIDs).
func (sec *Section) decode(buf []byte, w int, arena *frontier.Arena, words *frontier.Bump[uint64], seed uint32) error {
	off := 0
	for s := range sec.Slots {
		ids, n, scheme, err := decodeBlock(buf[off:], arena.Alloc, seed)
		if err != nil {
			return fmt.Errorf("wire: slot %d: %w", s, err)
		}
		sec.Slots[s] = ids
		off += n
		if sec.Hints == nil && w == 0 {
			continue
		}
		hint := HintSet
		if scheme != SchemeBitmap {
			hint = hintOf(ids)
		}
		if sec.Hints != nil {
			sec.Hints[s] = hint
		}
		if w > 0 {
			if hint != HintSet {
				return corruptf("wire: slot %d: record ids are not a set", s)
			}
			if sec.Masks[s], n, err = decodeMaskSection(buf[off:], len(ids), w, words.Alloc(len(ids)*w), seed); err != nil {
				return fmt.Errorf("wire: slot %d lanes: %w", s, err)
			}
			off += n
		}
	}
	if off != len(buf) {
		return corruptf("wire: %d trailing bytes after %d slots", len(buf)-off, len(sec.Slots))
	}
	return nil
}
