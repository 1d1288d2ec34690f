package wire

// This file frames the butterfly exchange's hop messages. An all-pairs
// message carries one destination rank's slots; a butterfly hop message
// aggregates several destination ranks' payloads into one larger message —
// the log(p) topology's whole point is that these aggregated messages climb
// out of the sub-2 MB efficiency plateau. Wire layout:
//
//	uvarint   section count
//	per section:
//	  uvarint destination rank
//	  uvarint payload length
//	  payload: EncodeRank blocks, each checksum seeded with the
//	           destination rank (sectionSeed)
//
// The framing varints sit outside the blocks' CRCs. A corrupted count or
// length misaligns the blocks behind it and fails their checksums; a
// corrupted destination rank would still parse — and misroute a whole
// section — which is why the blocks' checksums start from it.
//
// Re-encoding happens per hop: a relaying rank decodes, unions with its own
// pending ids, and encodes afresh, so the adaptive selector always sees the
// aggregated block — denser id coverage, smaller deltas, and each id once
// however many ranks staged it.

import (
	"encoding/binary"
	"fmt"

	"gcbfs/internal/frontier"
)

// sectionSeed is the running CRC every block of a section destined for rank
// starts its checksum from, binding the section's payload to its header. Rank
// 0's seed is the plain checksum's.
func sectionSeed(rank int) uint32 { return uint32(rank) }

// Section is one destination rank's share of a butterfly hop message.
type Section struct {
	Rank  int
	Slots [][]uint32
	Hints []Hint // per slot, what is known of its order (nil = nothing)
}

// EncodeSections frames sections into one hop message. The selector may be
// nil (no scheme memory). Stats follow mode's charging rule: with a codec
// active, EncodedBytes is the full message (framing included); with ModeOff
// it is the 4-bytes-per-id equivalent, matching the paper's 4·|Enn|
// convention for uncompressed traffic.
func (sel *Selector) EncodeSections(secs []Section, gpusPerRank int, mode Mode) ([]byte, Stats) {
	return sel.AppendSections(nil, secs, gpusPerRank, mode)
}

// AppendSections is EncodeSections into a caller-owned buffer: the framed
// message is appended to buf and Stats count only this call's bytes. The
// butterfly exchange keeps one buffer per hop slot, reused across
// iterations — safe because every hop message is received (and its ids
// arena-copied) before the iteration's terminating collective, which every
// rank passes before the buffer's next rewrite. Each section's payload is
// staged in the selector's scratch and copied into the frame immediately,
// so one scratch serves all sections.
func (sel *Selector) AppendSections(buf []byte, secs []Section, gpusPerRank int, mode Mode) ([]byte, Stats) {
	var st Stats
	start := len(buf)
	buf = binary.AppendUvarint(buf, uint64(len(secs)))
	for _, sec := range secs {
		var scratch []byte
		if sel != nil {
			scratch = sel.secBuf[:0]
		}
		payload, pst := sel.appendRank(scratch, sec.Rank, sec.Slots, sec.Hints, mode, sectionSeed(sec.Rank))
		if sel != nil {
			sel.secBuf = payload[:0]
		}
		st.Add(pst)
		buf = binary.AppendUvarint(buf, uint64(sec.Rank))
		buf = binary.AppendUvarint(buf, uint64(len(payload)))
		buf = append(buf, payload...)
	}
	st.EncodedBytes = int64(len(buf) - start)
	return buf, st.charged(mode)
}

// DecodeSections parses an EncodeSections message, whatever mode encoded it;
// ranks bounds the valid destination-rank space. Decoded Hints report which
// slots are ascending and which of those are sets (a bitmap is one by
// construction; delta and raw blocks are checked), so relays can keep
// unioning.
func DecodeSections(buf []byte, gpusPerRank, ranks int) ([]Section, error) {
	return DecodeSectionsScratch(buf, gpusPerRank, ranks, nil, nil)
}

// SectionScratch recycles the per-hop decode headers — Section structs,
// slot rows, hint rows — that DecodeSectionsScratch would
// otherwise heap-allocate per message. It is a bump allocator: chunks are
// carved off growing backing arrays and stay valid until Reset, which the
// caller issues once per exchange iteration (relayed sections live in the
// butterfly's pending set until the last hop, never longer). The zero value
// is ready to use; not safe for concurrent use — the engine keeps one per
// rank.
type SectionScratch struct {
	secs  []Section
	slots [][]uint32
	hints []Hint
}

// Reset reclaims every outstanding chunk (backing storage is kept).
func (h *SectionScratch) Reset() {
	h.secs, h.slots, h.hints = h.secs[:0], h.slots[:0], h.hints[:0]
}

// takeSections carves a zero-length Section chunk with capacity n: appends
// within the chunk never reallocate, and earlier chunks keep their (old)
// backing when growth replaces the array.
func (h *SectionScratch) takeSections(n int) []Section {
	if cap(h.secs)-len(h.secs) < n {
		h.secs = make([]Section, 0, 2*(len(h.secs)+n))
	}
	off := len(h.secs)
	h.secs = h.secs[:off+n]
	return h.secs[off : off : off+n]
}

// takeSlotRow carves a zeroed length-n slot row.
func (h *SectionScratch) takeSlotRow(n int) [][]uint32 {
	if cap(h.slots)-len(h.slots) < n {
		h.slots = make([][]uint32, 0, 2*(len(h.slots)+n))
	}
	off := len(h.slots)
	h.slots = h.slots[:off+n]
	row := h.slots[off : off+n : off+n]
	clear(row)
	return row
}

// takeHintRow carves a length-n hint row; the decode fills every entry.
func (h *SectionScratch) takeHintRow(n int) []Hint {
	if cap(h.hints)-len(h.hints) < n {
		h.hints = make([]Hint, 0, 2*(len(h.hints)+n))
	}
	off := len(h.hints)
	h.hints = h.hints[:off+n]
	return h.hints[off : off+n : off+n]
}

// DecodeSectionsScratch is DecodeSections with every decoded id slice drawn
// from the arena (per-iteration lifetime) and the section headers from the
// scratch; nil for either falls back to plain allocation. With both, the
// steady-state decode of a hop message is allocation-free.
func DecodeSectionsScratch(buf []byte, gpusPerRank, ranks int, arena *frontier.Arena, h *SectionScratch) ([]Section, error) {
	off := 0
	count, k := binary.Uvarint(buf)
	if k <= 0 {
		return nil, corruptf("wire: bad section count varint")
	}
	off += k
	// Each section carries at least two framing bytes, so this bound runs
	// before the allocation and keeps a corrupt count from reserving huge
	// Section headers (the framing varints sit outside any CRC).
	if count > uint64(len(buf))/2 {
		return nil, corruptf("wire: section count %d exceeds message size", count)
	}
	var out []Section
	if h != nil {
		out = h.takeSections(int(count))
	} else {
		out = make([]Section, 0, count)
	}
	for i := uint64(0); i < count; i++ {
		rank, k := binary.Uvarint(buf[off:])
		if k <= 0 || rank >= uint64(ranks) {
			return nil, corruptf("wire: section %d: bad destination rank", i)
		}
		off += k
		plen, k := binary.Uvarint(buf[off:])
		if k <= 0 {
			return nil, corruptf("wire: section %d: bad payload length", i)
		}
		off += k
		if plen > uint64(len(buf)-off) {
			return nil, corruptf("wire: section %d: payload truncated (%d of %d bytes)",
				i, len(buf)-off, plen)
		}
		payload := buf[off : off+int(plen)]
		off += int(plen)
		sec := Section{Rank: int(rank)}
		if h != nil {
			sec.Hints = h.takeHintRow(gpusPerRank)
		} else {
			sec.Hints = make([]Hint, gpusPerRank)
		}
		slots, err := decodeRankHints(payload, gpusPerRank, arena, h, sec.Hints, sectionSeed(sec.Rank))
		if err != nil {
			return nil, fmt.Errorf("wire: section %d: %w", i, err)
		}
		sec.Slots = slots
		out = append(out, sec)
	}
	if off != len(buf) {
		return nil, corruptf("wire: %d trailing bytes after %d sections", len(buf)-off, count)
	}
	return out, nil
}
