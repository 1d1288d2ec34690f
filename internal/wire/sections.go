package wire

// This file frames the butterfly exchange's hop messages. An all-pairs
// message carries one destination rank's slots — one Section, unframed; a
// butterfly hop message aggregates several destination ranks' payloads into
// one larger message —
// the log(p) topology's whole point is that these aggregated messages climb
// out of the sub-2 MB efficiency plateau. Wire layout:
//
//	uvarint   section count
//	per section:
//	  uvarint destination rank
//	  uvarint payload length
//	  payload: a rank message's blocks — each followed by its mask section when
//	           the ids carry w-word lane sets (a sweep's records) — every
//	           checksum seeded with the destination rank (sectionSeed)
//
// The framing varints sit outside the blocks' CRCs. A corrupted count or
// length misaligns the blocks behind it and fails their checksums; a
// corrupted destination rank would still parse — and misroute a whole
// section — which is why every checksum of it starts from it.
//
// Re-encoding happens per hop: a relaying rank decodes, unions with its own
// pending ids (OR-ing the lane sets of a record it holds twice), and encodes
// afresh, so the adaptive selector always sees the aggregated block — denser
// id coverage, smaller deltas, and each id once however many ranks staged it.

import (
	"encoding/binary"
	"fmt"

	"gcbfs/internal/frontier"
)

// sectionSeed is the running CRC every checksum of a section destined for
// rank starts from — its blocks' and, with lane sets, their mask sections' —
// binding the section's payload to its header. Rank 0's seed is the plain
// checksum's.
func sectionSeed(rank int) uint32 { return uint32(rank) }

// Section is one destination rank's slots: its share of a butterfly hop
// message, or — framed alone — an all-pairs rank message (AppendRankSection).
type Section struct {
	Rank  int
	Slots [][]uint32
	Hints []Hint // per slot, what is known of its order (nil = nothing)
	// Masks holds, per slot, the w-word lane set of each id (flat, in id
	// order) when the section carries a sweep's records; nil for plain ids.
	Masks [][]uint64
}

// AppendSections frames sections into one hop message appended to buf, each
// slot's ids followed by their w-word lane sets when w > 0 (see
// AppendRankSection). The selector may be nil (no reusable scratch). Stats
// count only this call's bytes and follow mode's charging rule: with the
// codec active, EncodedBytes is the full message (framing included); with
// ModeOff it is the fixed-width equivalent (4+8w bytes per id), matching the
// paper's 4·|Enn| convention for uncompressed traffic. The butterfly exchange
// keeps one buffer per hop slot, reused across iterations — safe because
// every hop message is received (and its ids arena-copied) before the
// iteration's terminating collective, which every rank passes before the
// buffer's next rewrite. Each section's payload is staged in the selector's
// scratch and copied into the frame immediately, so one scratch serves all
// sections.
func (sel *Selector) AppendSections(buf []byte, secs []Section, w int, mode Mode) ([]byte, Stats) {
	var st Stats
	start := len(buf)
	buf = binary.AppendUvarint(buf, uint64(len(secs)))
	for _, sec := range secs {
		var scratch []byte
		if sel != nil {
			scratch = sel.secBuf[:0]
		}
		payload, pst := sel.appendRank(scratch, sec, w, mode, sectionSeed(sec.Rank))
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

// SectionScratch recycles the per-hop decode headers — Section structs and
// their slot, mask and hint rows — that DecodeSectionsScratch would
// otherwise heap-allocate per message. The rows are bump-allocated and stay
// valid until Reset, which the caller issues once per exchange iteration
// (relayed sections live in the butterfly's pending set until the last hop,
// never longer). The zero value is ready to use; not safe for concurrent use
// — the engine keeps one per rank.
type SectionScratch struct {
	secs  frontier.Bump[Section]
	slots frontier.Bump[[]uint32]
	masks frontier.Bump[[]uint64]
	hints frontier.Bump[Hint]
}

// Reset reclaims every outstanding row (backing storage is kept).
func (h *SectionScratch) Reset() {
	h.secs.Reset()
	h.slots.Reset()
	h.masks.Reset()
	h.hints.Reset()
}

// DecodeSectionsScratch parses an AppendSections message of sections of w-word
// lane sets (w = 0: plain ids), whatever mode encoded it; ranks bounds the
// valid destination-rank space. Every decoded id slice is drawn from the
// arena, every lane set from words (both per-iteration lifetime) and the
// section headers from the scratch; nil for any of them falls back to plain
// allocation. With all three, the steady-state decode of a hop message is
// allocation-free. Decoded Hints report which slots are ascending and which
// of those are sets (a bitmap is one by construction; delta and raw blocks
// are checked), so relays can keep unioning. A record slot (w > 0) whose ids
// are not a set is corrupt: the sweep stages sets and its relays union them.
func DecodeSectionsScratch(buf []byte, gpusPerRank, w, ranks int, arena *frontier.Arena, words *frontier.Bump[uint64], h *SectionScratch) ([]Section, error) {
	if h == nil {
		h = new(SectionScratch)
	}
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
	out := h.secs.Alloc(int(count))
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
		sec := Section{
			Rank:  int(rank),
			Slots: h.slots.Alloc(gpusPerRank)[:gpusPerRank],
			Hints: h.hints.Alloc(gpusPerRank)[:gpusPerRank],
		}
		if w > 0 {
			sec.Masks = h.masks.Alloc(gpusPerRank)[:gpusPerRank]
		}
		if err := sec.decode(payload, w, arena, words, sectionSeed(sec.Rank)); err != nil {
			return nil, fmt.Errorf("wire: section %d: %w", i, err)
		}
		out = append(out, sec)
	}
	if off != len(buf) {
		return nil, corruptf("wire: %d trailing bytes after %d sections", len(buf)-off, count)
	}
	return out, nil
}
