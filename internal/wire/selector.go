package wire

// Selector holds an encoder's reusable scratch. It keeps no history: every
// adaptive block takes the smallest of its schemes, and every mask section
// the smaller of raw and sparse, whatever was encoded before it. It is not
// safe for concurrent use; the engine keeps one per rank.
type Selector struct {
	// sortBuf is the reusable sort scratch for blocks that arrive without
	// a hint (the sorted copy plus the radix sort's scatter space): the
	// sorted view lives only for the duration of one block's encode, so one
	// buffer per selector serves every block in turn.
	sortBuf []uint32
	// secBuf is the reusable per-section payload buffer AppendSections
	// encodes each section into before framing it (the framing copies the
	// payload out immediately, so one buffer serves every section in turn).
	secBuf []byte
	// hintBuf backs the Hint row AppendRank derives from its presorted row.
	hintBuf []Hint
}

// NewSelectorSized returns an empty selector; blocks is unused.
func NewSelectorSized(blocks int) *Selector {
	return &Selector{}
}

// AppendRank encodes one destination rank's per-slot id lists as a single
// message — one block per destination GPU slot — appended to buf, under
// mode's charging rule: with the codec active Stats count the bytes this call
// produced, framing, checksums and all; with ModeOff the id bytes only (the
// paper's 4·|Enn| convention). sorted is the per-slot presorted row (nil =
// nothing known); the engine, which knows more, calls AppendRankSection. dst
// is unused. Callers that reuse buffers across iterations hit zero
// steady-state allocation.
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
	return sel.appendRank(buf, Section{Slots: slots, Hints: hints}, 0, mode, 0)
}

// AppendRankSection is AppendRank of one section — sec.Slots under the hint
// row sec.Hints (nil = nothing known) — with w-word lane sets when w > 0:
// each slot's id block is then followed by the mask section of sec.Masks[s],
// its ids' lane sets in id order, and the ids must be a set (a sweep's
// records). RawBytes counts 4+8w bytes per id. The engine's exchanges own one
// buffer per in-flight message slot (per hop for the butterfly, per
// destination for all-pairs), so a buffer is never rewritten before the
// simulated barrier that guarantees its receipt.
func (sel *Selector) AppendRankSection(buf []byte, sec Section, w int, mode Mode) ([]byte, Stats) {
	return sel.appendRank(buf, sec, w, mode, 0)
}

// appendRank is AppendRankSection with every checksum's seed (see
// appendIDs).
func (sel *Selector) appendRank(buf []byte, sec Section, w int, mode Mode, seed uint32) ([]byte, Stats) {
	var sortBuf *[]uint32
	if sel != nil {
		sortBuf = &sel.sortBuf
	}
	var st Stats
	start := len(buf)
	for s, ids := range sec.Slots {
		var scheme Scheme
		hint := HintNone
		if sec.Hints != nil {
			hint = sec.Hints[s]
		}
		buf, scheme = appendIDs(buf, ids, mode, hint, sortBuf, seed)
		if w > 0 {
			masks := sec.Masks[s]
			buf = appendMaskSection(buf, masks, len(ids), w, chooseMaskScheme(masks, len(ids), w, mode), seed)
		}
		st.RawBytes += int64(4+8*w) * int64(len(ids))
		st.Selected[scheme]++
	}
	st.EncodedBytes = int64(len(buf) - start)
	return buf, st.charged(mode)
}
