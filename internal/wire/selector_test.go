package wire

import (
	"bytes"
	"testing"
)

// TestSelectorForcedModesBypass: ModeOff, the mode that forces a scheme
// (raw), encodes every block through a Selector exactly as without one,
// whatever the selector encoded before.
func TestSelectorForcedModesBypass(t *testing.T) {
	slots := [][]uint32{{5, 1, 9, 1}, {3, 4, 5, 6}}
	sel := new(Selector)
	sel.AppendRank(nil, 0, slots, nil, ModeAdaptive)
	want, wantSt := (*Selector)(nil).AppendRank(nil, 0, slots, nil, ModeOff)
	for i := 0; i < 2; i++ {
		if buf, st := sel.AppendRank(nil, 0, slots, nil, ModeOff); !bytes.Equal(buf, want) || st != wantSt {
			t.Fatalf("encode %d: %+v through a selector, %+v without", i, st, wantSt)
		}
	}
}

// TestSelectorEncodeRankStats: AppendRank counts the message it produced,
// gives the same message for the same slots every time, and produces output
// DecodeRankInto accepts.
func TestSelectorEncodeRankStats(t *testing.T) {
	slots := [][]uint32{{1, 2, 3, 4, 5, 6, 7, 8}, {100, 200}}
	sel := new(Selector)
	buf1, st1 := sel.AppendRank(nil, 4, slots, nil, ModeAdaptive)
	if st1.RawBytes != 4*10 || st1.EncodedBytes != int64(len(buf1)) || st1.Selected[SchemeRaw]+st1.Selected[SchemeDelta]+st1.Selected[SchemeBitmap] != 2 {
		t.Fatalf("stats %+v for %d bytes", st1, len(buf1))
	}
	buf, st2 := sel.AppendRank(nil, 4, slots, nil, ModeAdaptive)
	if st2 != st1 || !bytes.Equal(buf, buf1) {
		t.Fatalf("second message %+v, first %+v", st2, st1)
	}
	if err := DecodeRankInto(buf, make([][]uint32, 2)); err != nil {
		t.Fatal(err)
	}
}

// TestSelectorHasNoHistory: a (dst, slot) block encodes to the bytes a fresh
// Selector gives it, whatever the same selector encoded for that (dst, slot)
// before — here a differently shaped block of the same raw size.
func TestSelectorHasNoHistory(t *testing.T) {
	const n = 100
	// ids: small gaps make delta the winner; then gaps of 2^22 make every
	// delta varint 4 bytes and the first one 5, so raw wins.
	deltaWins, rawWins := make([]uint32, n), make([]uint32, n)
	// bitmap: consecutive ids make the bitmap the winner; spread 25 apart,
	// delta wins.
	wide := make([]uint32, n)
	// masks: one lane per record makes sparse the winner (2 bytes a record
	// against 8); forty lanes make raw the winner (41 against 8).
	ids, oneBit, fortyBits := make([]uint32, n), make([]uint64, n), make([]uint64, n)
	for i := range n {
		deltaWins[i] = uint32(600 * i)
		rawWins[i] = 1<<28 + uint32(i)<<22
		wide[i] = uint32(25 * i)
		ids[i] = uint32(i)
		oneBit[i] = 1 << (i % 64)
		fortyBits[i] = 1<<40 - 1
	}
	section := func(ids []uint32, masks []uint64) Section {
		sec := Section{Rank: 3, Slots: [][]uint32{ids}, Hints: []Hint{HintSet}}
		if masks != nil {
			sec.Masks = [][]uint64{masks}
		}
		return sec
	}
	for _, tc := range []struct {
		name          string
		w             int
		before, after Section
	}{
		{"ids", 0, section(deltaWins, nil), section(rawWins, nil)},
		{"bitmap", 0, section(ids, nil), section(wide, nil)},
		{"masks", 1, section(ids, oneBit), section(ids, fortyBits)},
	} {
		sel := new(Selector)
		sel.AppendRankSection(nil, tc.before, tc.w, ModeAdaptive)
		got, gotSt := sel.AppendRankSection(nil, tc.after, tc.w, ModeAdaptive)
		want, wantSt := new(Selector).AppendRankSection(nil, tc.after, tc.w, ModeAdaptive)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes after a differently shaped block, %d from a fresh selector (%+v vs %+v)",
				tc.name, len(got), len(want), gotSt, wantSt)
		}
	}
}
