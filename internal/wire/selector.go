package wire

// This file implements per-destination scheme memory for the adaptive codec.
// Frontier shape is stable across consecutive BFS iterations: the block that
// delta-encoded best for (dst, slot) last iteration almost always does again.
// A Selector therefore remembers each block's winning scheme and, while the
// block's size stays within 2× of the remembered one, encodes with that
// scheme directly — skipping the full three-way size probe (and its sort
// copy for raw winners). A size-ratio change falls back to full selection,
// so phase transitions (frontier growth/collapse) re-probe immediately. A
// block that carries lane sets (a sweep's records) remembers its mask
// section's scheme the same way, in the same entry.

type blockKey struct {
	dst, slot int
}

// blockMemo is one block's remembered schemes and the raw sizes they won at:
// the id block's, and the mask section's when the block carries lane sets.
type blockMemo struct {
	scheme            Scheme
	mask              MaskScheme
	rawBytes, maskRaw int64
}

// inWindow reports whether a block of raw bytes may reuse the scheme that won
// at was: within 2× either way of a non-empty remembered size.
func inWindow(raw, was int64) bool {
	return was > 0 && raw > 0 && raw >= was/2 && raw <= 2*was
}

// Selector adds per-(destination, slot) scheme memory to adaptive encoding.
// It is not safe for concurrent use; the engine keeps one per rank.
type Selector struct {
	memo map[blockKey]blockMemo
	// sortBuf is the reusable sort scratch for blocks that arrive without
	// the presorted hint (the sorted copy plus the radix sort's scatter
	// space): the sorted view lives only for the duration of one Append, so
	// one buffer per selector serves every block in turn.
	sortBuf []uint32
	// secBuf is the reusable per-section payload buffer AppendSections
	// encodes each section into before framing it (the framing copies the
	// payload out immediately, so one buffer serves every section in turn).
	secBuf []byte
	// hintBuf backs the Hint row AppendRank derives from its presorted row.
	hintBuf []Hint
}

// NewSelector returns an empty selector.
func NewSelector() *Selector {
	return NewSelectorSized(0)
}

// NewSelectorSized returns an empty selector whose scheme-memory map is
// pre-sized for the expected block count — destinations × slots, known from
// the cluster shape — so the steady state never pays map growth.
func NewSelectorSized(blocks int) *Selector {
	return &Selector{memo: make(map[blockKey]blockMemo, blocks)}
}

// Reset forgets all scheme memory while keeping the map's storage, so a
// pooled selector starts every query from the same blank state a fresh one
// would — per-query wire bytes stay bit-identical regardless of what ran on
// the scratch before.
func (sel *Selector) Reset() {
	if sel != nil && sel.memo != nil {
		clear(sel.memo)
	}
}

// forcedMode returns the mode that pins a remembered scheme.
func forcedMode(s Scheme) Mode {
	if s == SchemeDelta {
		return ModeDelta
	}
	return ModeRaw
}

// Append encodes ids for the (dst, slot) block, consulting the scheme memory
// when mode is adaptive. It returns the extended buffer, the scheme used,
// and whether the memory short-circuited full selection.
//
// Bitmap winners are never pinned: the forced-bitmap mode accepts blocks up
// to ~4× the raw size (an ablation affordance), so a remembered bitmap
// could lock in inflated encodings when the id range widens while the count
// stays stable — and bitmap sizing needs the sorted view anyway, so the
// full probe costs nothing extra for those blocks.
func (sel *Selector) Append(buf []byte, ids []uint32, mode Mode, dst, slot int, presorted bool) ([]byte, Scheme, bool) {
	return sel.append(buf, ids, mode, dst, slot, sortedHint(presorted), 0)
}

// append is Append under any Hint, with the block's checksum seed (see
// appendSorted).
func (sel *Selector) append(buf []byte, ids []uint32, mode Mode, dst, slot int, hint Hint, seed uint32) ([]byte, Scheme, bool) {
	if sel == nil || sel.memo == nil || mode != ModeAdaptive {
		var sortBuf *[]uint32
		if sel != nil {
			sortBuf = &sel.sortBuf
		}
		out, scheme := appendSorted(buf, ids, mode, hint, sortBuf, seed)
		return out, scheme, false
	}
	key := blockKey{dst: dst, slot: slot}
	raw := 4 * int64(len(ids))
	m := sel.memo[key]
	hit := m.scheme != SchemeBitmap && inWindow(raw, m.rawBytes)
	encode := ModeAdaptive
	if hit {
		encode = forcedMode(m.scheme)
	}
	out, scheme := appendSorted(buf, ids, encode, hint, &sel.sortBuf, seed)
	m.scheme, m.rawBytes = scheme, raw
	sel.memo[key] = m
	return out, scheme, hit
}

// appendMasks appends the mask section of one (dst, slot) block's n records,
// w words each, choosing its scheme through the same memory the id block
// uses, and reports whether the memory decided.
func (sel *Selector) appendMasks(buf []byte, masks []uint64, n, w int, mode Mode, dst, slot int, seed uint32) ([]byte, bool) {
	if sel == nil || sel.memo == nil || mode != ModeAdaptive {
		return appendMaskSection(buf, masks, n, w, chooseMaskScheme(masks, n, w, mode), seed), false
	}
	key := blockKey{dst: dst, slot: slot}
	raw := 8 * int64(n) * int64(w)
	m := sel.memo[key]
	hit := inWindow(raw, m.maskRaw)
	if !hit {
		m.mask = chooseMaskScheme(masks, n, w, mode)
	}
	m.maskRaw = raw
	sel.memo[key] = m
	return appendMaskSection(buf, masks, n, w, m.mask, seed), hit
}

// EncodeRank encodes one destination rank's per-slot id lists as a single
// message — one block per destination GPU slot, through the scheme memory
// keyed by the destination rank — under mode's charging rule: with a codec
// active Stats count the encoded message, framing, checksums and all; with
// ModeOff the id bytes only (the paper's 4·|Enn| convention).
func (sel *Selector) EncodeRank(dst int, slots [][]uint32, sorted []bool, mode Mode) ([]byte, Stats) {
	return sel.AppendRank(nil, dst, slots, sorted, mode)
}

// AppendRank is EncodeRank into a caller-owned buffer: the encoded blocks
// are appended to buf and Stats count only the bytes this call produced.
// Callers that reuse buffers across iterations hit zero steady-state
// allocation. sorted is the per-slot presorted row (nil = nothing known);
// the engine, which knows more, calls AppendRankSection.
func (sel *Selector) AppendRank(buf []byte, dst int, slots [][]uint32, sorted []bool, mode Mode) ([]byte, Stats) {
	var hints []Hint
	if sorted != nil {
		if sel != nil {
			hints = sel.hintBuf[:0]
		}
		for _, s := range sorted {
			hints = append(hints, sortedHint(s))
		}
		if sel != nil {
			sel.hintBuf = hints
		}
	}
	return sel.appendRank(buf, Section{Rank: dst, Slots: slots, Hints: hints}, 0, mode, 0)
}

// AppendRankSection is AppendRank of one section — sec.Slots for rank
// sec.Rank under the hint row sec.Hints (nil = nothing known) — with w-word
// lane sets when w > 0: each slot's id block is then followed by the mask
// section of sec.Masks[s], its ids' lane sets in id order, and the ids must
// be a set (a sweep's records). RawBytes counts 4+8w bytes per id. The
// engine's exchanges own one buffer per in-flight message slot (per hop for
// the butterfly, per destination for all-pairs), so a buffer is never
// rewritten before the simulated barrier that guarantees its receipt.
func (sel *Selector) AppendRankSection(buf []byte, sec Section, w int, mode Mode) ([]byte, Stats) {
	return sel.appendRank(buf, sec, w, mode, 0)
}

// appendRank is AppendRankSection with every checksum's seed (see
// appendSorted). A block counts as a memo hit when the memory decided its id
// block and, with lane sets, its mask section too.
func (sel *Selector) appendRank(buf []byte, sec Section, w int, mode Mode, seed uint32) ([]byte, Stats) {
	var st Stats
	start := len(buf)
	for s, ids := range sec.Slots {
		var scheme Scheme
		var hit bool
		hint := HintNone
		if sec.Hints != nil {
			hint = sec.Hints[s]
		}
		buf, scheme, hit = sel.append(buf, ids, mode, sec.Rank, s, hint, seed)
		if w > 0 {
			var maskHit bool
			buf, maskHit = sel.appendMasks(buf, sec.Masks[s], len(ids), w, mode, sec.Rank, s, seed)
			hit = hit && maskHit
		}
		st.RawBytes += int64(4+8*w) * int64(len(ids))
		st.Selected[scheme]++
		if hit {
			st.MemoHits++
		}
	}
	st.EncodedBytes = int64(len(buf) - start)
	return buf, st.charged(mode)
}
