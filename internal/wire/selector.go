package wire

// This file implements per-destination scheme memory for the adaptive codec.
// Frontier shape is stable across consecutive BFS iterations: the block that
// delta-encoded best for (dst, slot) last iteration almost always does again.
// A Selector therefore remembers each block's winning scheme and, while the
// block's size stays within 2× of the remembered one, encodes with that
// scheme directly — skipping the full three-way size probe (and its sort
// copy for raw winners). A size-ratio change falls back to full selection,
// so phase transitions (frontier growth/collapse) re-probe immediately.

type blockKey struct {
	dst, slot int
}

type blockMemo struct {
	scheme   Scheme
	rawBytes int64
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
	if m, ok := sel.memo[key]; ok && m.scheme != SchemeBitmap && m.rawBytes > 0 && raw > 0 &&
		raw >= m.rawBytes/2 && raw <= 2*m.rawBytes {
		out, scheme := appendSorted(buf, ids, forcedMode(m.scheme), hint, &sel.sortBuf, seed)
		sel.memo[key] = blockMemo{scheme: scheme, rawBytes: raw}
		return out, scheme, true
	}
	out, scheme := appendSorted(buf, ids, ModeAdaptive, hint, &sel.sortBuf, seed)
	sel.memo[key] = blockMemo{scheme: scheme, rawBytes: raw}
	return out, scheme, false
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
// the engine, which knows more, calls AppendRankHinted.
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
	return sel.appendRank(buf, dst, slots, hints, mode, 0)
}

// AppendRankHinted is AppendRank under a per-slot Hint row (nil = nothing
// known). The engine's exchanges own one buffer per in-flight message slot
// (per hop for the butterfly, per destination for all-pairs), so a buffer is
// never rewritten before the simulated barrier that guarantees its receipt.
func (sel *Selector) AppendRankHinted(buf []byte, dst int, slots [][]uint32, hints []Hint, mode Mode) ([]byte, Stats) {
	return sel.appendRank(buf, dst, slots, hints, mode, 0)
}

// appendRank is AppendRankHinted with every block's checksum seed (see
// appendSorted).
func (sel *Selector) appendRank(buf []byte, dst int, slots [][]uint32, hints []Hint, mode Mode, seed uint32) ([]byte, Stats) {
	var st Stats
	start := len(buf)
	for s, ids := range slots {
		var scheme Scheme
		var hit bool
		hint := HintNone
		if hints != nil {
			hint = hints[s]
		}
		buf, scheme, hit = sel.append(buf, ids, mode, dst, s, hint, seed)
		st.RawBytes += 4 * int64(len(ids))
		st.Selected[scheme]++
		if hit {
			st.MemoHits++
		}
	}
	st.EncodedBytes = int64(len(buf) - start)
	return buf, st.charged(mode)
}
