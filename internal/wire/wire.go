// Package wire implements the adaptive frontier-exchange codec used by the
// inter-rank normal-vertex exchange (§V-B). The exchanged payloads are lists
// of 32-bit destination-local vertex ids; depending on frontier shape, the
// same list is smallest as a raw array (scattered, unordered), a sorted
// varint delta stream (clustered ids), or a dense bitmap (a large fraction
// of the destination's id space). The encoder picks the smallest
// representation per message, which is the communication-volume reduction
// that Romera-style frontier compression and ButterFly BFS both exploit.
//
// # Wire format
//
// Every rank message — ids, (id, query-set) records, (id, value) pairs, in
// every Mode — is made of these blocks and nothing else, so every byte a rank
// receives sits under a checksum and every decode error is born wrapping
// ErrCorrupt. One encoded block carries the ids destined for one GPU slot:
//
//	offset  size      field
//	0       1         scheme byte: 0 = raw, 1 = delta, 2 = bitmap
//	1       uvarint   n, the number of ids the block decodes to
//	…       payload   scheme-specific body (below)
//	end-4   4         CRC32 (IEEE, little-endian) of every preceding
//	                  byte of the block — corruption detection
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
//	        The adaptive selector only picks bitmap for duplicate-free
//	        input, so adaptive encoding always round-trips the multiset.
//
// A rank-to-rank message (EncodeRank/DecodeRank) is gpusPerRank blocks
// back to back, one per destination GPU slot — each followed by its mask
// section when the ids carry a sweep's w-word lane sets (AppendRankSection,
// DecodeRankLanesInto; records.go). A butterfly hop message frames several
// such payloads (sections.go).
//
// ModeOff — the paper's §V-B fixed-width packing, the default — is not a
// second format: it writes raw blocks (input order kept, nothing sorted, no
// scheme memory touched) and differs from ModeRaw only in what Stats charge
// for them. The paper counts 4·|Enn| bytes and no codec kernel, so under
// ModeOff RawBytes == EncodedBytes == the fixed-width payload (4 B per id,
// 4+8w B per record, 12 B per pair), the block framing uncharged, and
// Selected and MemoHits stay zero. Receivers call the one decoder whatever
// the mode and account a ModeOff arrival as the ids it decoded to.
//
// # Sort contract
//
// Ascending order is the codec's canonical form: delta and bitmap bytes are
// a function of the id multiset alone, and a raw block's length is. Whoever
// owns the ids sorts them, once, where the block is born, with
// frontier.SortIDs / SortPairs and its own scatter scratch, and says so with a
// Hint (AppendSorted's presorted, a Section's hint row, AppendPairsSorted);
// the encoders then only read. The engine goes
// one step further: with a codec active it stages every slot as a set —
// sorted in place in its send bins and compacted there (HintSet) — so the
// encoder's duplicate scan goes too and a dense slot is bitmap-eligible. With
// the codec off (ModeOff) nothing needs the order: senders skip the sort and
// raw blocks carry the ids, repeats and all, as the kernels left them.
// Decoders hand the hint back: bitmap blocks decode to a set by construction,
// and DecodeSections scans delta blocks (ascending, a zero gap for every
// repeat) and raw blocks (the sender's order) rather than trusting the sender,
// so a relay unions what it forwards (frontier.MergeSortedArena; a sweep's
// records, always sets, frontier.MergeRecords) and never sorts it again.
// Without a hint an encoder never touches the caller's slice: it sorts a copy, in the
// Selector's reusable scratch when there is one (one buffer per rank, sized
// by its largest single block) and in a fresh allocation otherwise (Append,
// AppendPairs — the outside caller's path). The codec itself stays a multiset
// codec — a hintless or HintSorted block round-trips every repeat; sets are
// what the engine chooses to feed it.
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

	// NumSchemes bounds per-scheme counters.
	NumSchemes = 3
)

func (s Scheme) String() string {
	switch s {
	case SchemeRaw:
		return "raw"
	case SchemeDelta:
		return "delta"
	case SchemeBitmap:
		return "bitmap"
	}
	return fmt.Sprintf("scheme(%d)", uint8(s))
}

// Mode is the codec policy a caller selects: disabled, adaptive (smallest
// per block), or one scheme forced for ablations.
type Mode int

const (
	// ModeOff is the paper's fixed-width packing: raw blocks, charged as the
	// fixed-width payload alone with no codec kernel (see "Wire format").
	ModeOff Mode = iota
	// ModeAdaptive picks the smallest of the three schemes per block. A
	// Selector adds per-destination scheme memory on top: on memo hits the
	// remembered scheme is reused without re-probing, so a block whose
	// shape shifted inside the memory's size window may be encoded with
	// last iteration's winner rather than today's smallest.
	ModeAdaptive
	// ModeRaw, ModeDelta and ModeBitmap force one scheme for every block
	// (ablation knobs). ModeBitmap falls back to delta for blocks a bitmap
	// cannot sensibly carry: duplicated ids, or an id range so sparse the
	// bitmap would exceed four times the raw encoding (that guard keeps a
	// forced-bitmap ablation from allocating gigabyte bitsets for a
	// handful of huge ids).
	ModeRaw
	ModeDelta
	ModeBitmap
)

func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeAdaptive:
		return "adaptive"
	case ModeRaw:
		return "raw"
	case ModeDelta:
		return "delta"
	case ModeBitmap:
		return "bitmap"
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
	case "raw":
		return ModeRaw, nil
	case "delta":
		return ModeDelta, nil
	case "bitmap":
		return ModeBitmap, nil
	}
	return ModeOff, fmt.Errorf("wire: unknown compression mode %q", s)
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
// pairs codec), the bytes actually produced (headers and checksums included),
// per-scheme block counts, and how many blocks a Selector encoded straight
// from its per-destination scheme memory. Under ModeOff the fixed-width
// equivalent is all that is charged (see charged).
type Stats struct {
	RawBytes     int64
	EncodedBytes int64
	Selected     [NumSchemes]int64
	MemoHits     int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.RawBytes += other.RawBytes
	s.EncodedBytes += other.EncodedBytes
	for i := range s.Selected {
		s.Selected[i] += other.Selected[i]
	}
	s.MemoHits += other.MemoHits
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

var crcTable = crc32.MakeTable(crc32.IEEE)

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

// Append encodes ids as one block according to mode and appends it to dst,
// returning the extended buffer and the scheme actually used (raw under
// ModeOff). See the package comment for per-scheme round-trip semantics.
func Append(dst []byte, ids []uint32, mode Mode) ([]byte, Scheme) {
	return AppendSorted(dst, ids, mode, false)
}

// AppendSorted is Append with a pre-sorted hint: when presorted is true the
// caller asserts ids are already sorted ascending (duplicates allowed), so
// the delta/bitmap paths skip their sort copy and encode the input directly.
// A true hint on unsorted input would corrupt the delta stream — callers
// plumb the hint from frontier.Bins, which tracks it per bin, or from a
// decode that verified it (Section.Hints).
func AppendSorted(dst []byte, ids []uint32, mode Mode, presorted bool) ([]byte, Scheme) {
	return appendSorted(dst, ids, mode, sortedHint(presorted), nil, 0)
}

// appendSorted is AppendSorted under any Hint, with an optional sort scratch
// (see sortedCopy) — the Selector threads its per-rank buffer through here so
// unsorted blocks stop allocating their canonical view — and the running CRC
// the block's checksum starts from: zero for a block that stands alone, the
// destination rank for a block inside a butterfly section (sectionSeed).
func appendSorted(dst []byte, ids []uint32, mode Mode, hint Hint, sortBuf *[]uint32, seed uint32) ([]byte, Scheme) {
	scheme := SchemeRaw
	var sorted []uint32
	switch mode {
	case ModeOff, ModeRaw:
		// No canonicalization needed; the size is known up front.
		dst = slices.Grow(dst, blockLen(len(ids), 4*len(ids)))
	case ModeDelta:
		scheme = SchemeDelta
		sorted, _ = sortedView(ids, hint, sortBuf)
	case ModeBitmap:
		var unique bool
		sorted, unique = sortedView(ids, hint, sortBuf)
		if unique && bitmapPayloadLen(sorted) <= 4*4*len(ids)+16 {
			scheme = SchemeBitmap
		} else {
			scheme = SchemeDelta
		}
	case ModeAdaptive:
		var unique bool
		sorted, unique = sortedView(ids, hint, sortBuf)
		rawSize := 4 * len(ids)
		bestSize := rawSize
		if d := deltaPayloadLen(sorted); d < bestSize {
			bestSize, scheme = d, SchemeDelta
		}
		if unique {
			if b := bitmapPayloadLen(sorted); b < bestSize {
				scheme = SchemeBitmap
			}
		}
	default:
		panic(fmt.Sprintf("wire: Append called with mode %v", mode))
	}

	start := len(dst)
	dst = append(dst, byte(scheme))
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	switch scheme {
	case SchemeRaw:
		for _, v := range ids {
			dst = binary.LittleEndian.AppendUint32(dst, v)
		}
	case SchemeDelta:
		if len(sorted) > 0 {
			dst = binary.AppendUvarint(dst, uint64(sorted[0]))
			for i := 1; i < len(sorted); i++ {
				dst = binary.AppendUvarint(dst, uint64(sorted[i]-sorted[i-1]))
			}
		}
	case SchemeBitmap:
		words := 0
		if len(sorted) > 0 {
			words = int(sorted[len(sorted)-1])/64 + 1
		}
		dst = binary.AppendUvarint(dst, uint64(words))
		wordsStart := len(dst)
		dst = slices.Grow(dst, 8*words)[:wordsStart+8*words]
		clear(dst[wordsStart:])
		for _, v := range sorted {
			off := wordsStart + int(v/64)*8
			w := binary.LittleEndian.Uint64(dst[off:])
			binary.LittleEndian.PutUint64(dst[off:], w|1<<(v%64))
		}
	}
	sum := crc32.Update(seed, crcTable, dst[start:])
	dst = binary.LittleEndian.AppendUint32(dst, sum)
	return dst, scheme
}

// Decode parses one block at the start of buf. It returns the decoded ids,
// the number of bytes consumed, and the scheme. Any truncation, trailing
// garbage inside the block, unknown scheme byte or checksum mismatch yields
// an error — a block never decodes to wrong ids silently.
func Decode(buf []byte) ([]uint32, int, Scheme, error) {
	return DecodeAppend(buf, nil)
}

// DecodeAppend is Decode writing into a caller-provided buffer: the decoded
// ids are appended to dst (grown once, pre-sized by the block's id-count
// header) and the extended slice is returned. This is the zero-copy arrival
// path — a receiver hands its reusable per-slot arrival bin and a
// steady-state exchange decodes without allocating. On error the contents of
// dst are unspecified and the returned slice must be discarded.
func DecodeAppend(buf []byte, dst []uint32) ([]uint32, int, Scheme, error) {
	return decodeBlock(buf, func(n int) []uint32 { return slices.Grow(dst, n) }, 0)
}

// decodeBlock parses one block, drawing the id buffer from grow(n) — a
// function returning a slice (existing contents preserved) with capacity for
// n more ids. Per-scheme count bounds run BEFORE grow is called, so a
// corrupt count field can never trigger a huge allocation: raw ids take 4
// bytes each, delta ids at least 1 byte each, bitmap ids at most 64 per
// 8-byte word. seed is the running CRC the sender's checksum started from
// (see appendSorted).
func decodeBlock(buf []byte, grow func(n int) []uint32, seed uint32) ([]uint32, int, Scheme, error) {
	if len(buf) < 1+1+crcLen {
		return nil, 0, 0, corruptf("wire: block truncated (%d bytes)", len(buf))
	}
	scheme := Scheme(buf[0])
	if scheme >= NumSchemes {
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

// EncodeRank encodes one block per destination GPU slot into a single
// rank-to-rank message and reports the accounting for the whole message.
// Pre-sorted hints and scheme memory are the Selector method's job; this
// entry point encodes without either.
func EncodeRank(slots [][]uint32, mode Mode) ([]byte, Stats) {
	return (*Selector)(nil).EncodeRank(0, slots, nil, mode)
}

// DecodeRank parses an EncodeRank message back into per-slot id lists.
// Trailing bytes after the last block are rejected, as are all per-block
// corruption forms Decode detects.
func DecodeRank(buf []byte, gpusPerRank int) ([][]uint32, error) {
	sec := Section{Slots: make([][]uint32, gpusPerRank)}
	if err := sec.decode(buf, 0, nil, nil, 0); err != nil {
		return nil, err
	}
	return sec.Slots, nil
}

// DecodeRankInto parses an EncodeRank message, appending each slot's ids to
// the corresponding entry of into (len(into) is the slot count). The
// zero-copy counterpart of DecodeRank: each block's count header pre-sizes
// the grow, so decoding into reusable arrival bins allocates nothing on the
// steady state. On error the contents of into are unspecified (the caller
// abandons the exchange).
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
		ids, n, _, err := DecodeAppend(buf[off:], into[s])
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
// a set. seed is every checksum's seed (see appendSorted).
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
