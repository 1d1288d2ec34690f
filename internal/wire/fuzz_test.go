package wire

// Native fuzz targets for every wire decoder. The contract under arbitrary
// bytes: a decoder returns a wire.ErrCorrupt-typed error or a valid decode —
// it never panics, and it never lets a corrupt length field drive a huge
// allocation (the bitmap scheme's 64 ids per 8-byte word bounds any honest
// decode to at most 8 ids per input byte, plus small framing slack).
//
// Seed corpora live in testdata/fuzz/<target>/ (valid one-block encodings of
// every scheme plus truncations); `go test` replays them on every run, and
// `go test -fuzz=FuzzDecode...` explores from there.

import (
	"errors"
	"testing"

	"gcbfs/internal/frontier"
)

// idBound is the allocation ceiling for id-producing decoders.
func idBound(inputLen int) int { return 8*inputLen + 64 }

// checkErr fails the target when a decoder error is not ErrCorrupt-typed.
func checkErr(t *testing.T, err error) {
	t.Helper()
	if err != nil && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decoder error not wire.ErrCorrupt-typed: %v", err)
	}
}

// seedBlocks yields valid single-block encodings across schemes, plus
// truncated and bit-flipped variants — the corpus floor every target shares.
func seedBlocks(f *testing.F, encode func(ids []uint32, mode Mode) []byte) {
	idSets := [][]uint32{
		{},
		{1, 2, 3},
		{0, 7, 63, 64, 65, 1 << 20, 1<<32 - 1},
		{5, 5, 5, 9},
	}
	for _, ids := range idSets {
		for _, mode := range []Mode{ModeRaw, ModeDelta, ModeBitmap, ModeAdaptive} {
			b := encode(ids, mode)
			f.Add(b)
			if len(b) > 2 {
				f.Add(b[:len(b)/2])
				flipped := append([]byte(nil), b...)
				flipped[len(flipped)/2] ^= 0x10
				f.Add(flipped)
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff})
}

func FuzzDecode(f *testing.F) {
	seedBlocks(f, func(ids []uint32, mode Mode) []byte {
		b, _ := Append(nil, ids, mode)
		return b
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		ids, n, _, err := Decode(data)
		checkErr(t, err)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d bytes of a %d-byte input", n, len(data))
		}
		if len(ids) > idBound(len(data)) {
			t.Fatalf("decoded %d ids from %d bytes — over-allocation", len(ids), len(data))
		}
	})
}

func FuzzDecodeRank(f *testing.F) {
	seedBlocks(f, func(ids []uint32, mode Mode) []byte {
		b, _ := EncodeRank([][]uint32{ids, ids}, mode)
		return b
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, gpus := range []int{1, 2, 4} {
			slots, err := DecodeRank(data, gpus)
			checkErr(t, err)
			if err != nil {
				continue
			}
			total := 0
			for _, s := range slots {
				total += len(s)
			}
			if total > idBound(len(data)) {
				t.Fatalf("decoded %d ids from %d bytes (%d slots) — over-allocation", total, len(data), gpus)
			}
			// The zero-copy path must agree with the allocating one.
			into := make([][]uint32, gpus)
			if err := DecodeRankInto(data, into); err != nil {
				t.Fatalf("DecodeRank accepted but DecodeRankInto rejected: %v", err)
			}
		}
	})
}

func FuzzDecodePairs(f *testing.F) {
	pairSets := [][]frontier.Pair{
		{},
		{{ID: 1, Val: 10}, {ID: 2, Val: 20}},
		{{ID: 1 << 30, Val: 1 << 60}, {ID: 1<<32 - 1, Val: 0}},
	}
	for _, pairs := range pairSets {
		for _, mode := range []Mode{ModeRaw, ModeDelta, ModeAdaptive} {
			b, _ := AppendPairs(nil, pairs, mode)
			f.Add(b)
			if len(b) > 2 {
				f.Add(b[:len(b)-2])
			}
		}
	}
	f.Add([]byte{})
	for _, b := range lanePairSeeds(ModeOff, ModeRaw, ModeDelta, ModeAdaptive) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pairs, n, _, err := DecodePairs(data)
		checkErr(t, err)
		if err == nil {
			if n > len(data) {
				t.Fatalf("consumed %d bytes of a %d-byte input", n, len(data))
			}
			if len(pairs) > len(data) {
				t.Fatalf("decoded %d pairs from %d bytes — over-allocation", len(pairs), len(data))
			}
		}
		for _, gpus := range []int{1, 2} {
			slots := make([][]frontier.Pair, gpus)
			err := DecodePairsRankInto(data, slots, nil, 0)
			checkErr(t, err)
			if err != nil {
				continue
			}
			total := 0
			for _, s := range slots {
				total += len(s)
			}
			if total > len(data) {
				t.Fatalf("decoded %d pairs from %d bytes (%d slots) — over-allocation", total, len(data), gpus)
			}
		}
		// The same bytes as a lane-carrying message: every pairs block followed
		// by a mask section of w words per pair.
		for _, w := range []int{1, 2} {
			slots, lanes := make([][]frontier.Pair, 2), make([][]uint64, 2)
			err := DecodePairsRankInto(data, slots, lanes, w)
			checkErr(t, err)
			for s := range slots {
				if err == nil && len(lanes[s]) != w*len(slots[s]) {
					t.Fatalf("slot %d: %d lane words for %d pairs of %d words", s, len(lanes[s]), len(slots[s]), w)
				}
			}
		}
	})
}

// lanePairSeeds returns two-slot lane-carrying pairs messages (w = 1 and 2),
// each whole and truncated. The pairs are in ascending id, as a sorting codec
// needs them.
func lanePairSeeds(modes ...Mode) [][]byte {
	slots := [][]frontier.Pair{{{ID: 3, Val: 7<<20 | 2}, {ID: 3, Val: 5<<20 | 2}, {ID: 900, Val: 1 << 40}}, {{ID: 1<<32 - 1, Val: 0}}}
	var out [][]byte
	for _, w := range []int{1, 2} {
		lanes := make([][]uint64, len(slots))
		for s, prs := range slots {
			for i := 0; i < len(prs)*w; i++ {
				lanes[s] = append(lanes[s], uint64(3*i+s+1)<<(9*i))
			}
		}
		for _, mode := range modes {
			b, _ := AppendPairsRank(nil, slots, lanes, w, mode, true)
			out = append(out, b, b[:len(b)-2])
		}
	}
	return out
}

func FuzzDecodeRecords(f *testing.F) {
	for _, w := range []int{1, 2} {
		ids := []uint32{3, 9, 300}
		masks := make([]uint64, len(ids)*w)
		for i := range masks {
			masks[i] = uint64(i + 1)
		}
		for _, mode := range []Mode{ModeRaw, ModeDelta, ModeAdaptive} {
			b, _, _ := AppendRecords(nil, ids, masks, w, mode)
			f.Add(b)
			if len(b) > 2 {
				f.Add(b[:len(b)-2])
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, w := range []int{1, 2} {
			ids, masks, n, err := DecodeRecordsAppend(data, w, nil, nil)
			checkErr(t, err)
			if err != nil {
				continue
			}
			if n > len(data) {
				t.Fatalf("consumed %d bytes of a %d-byte input", n, len(data))
			}
			if len(ids) > idBound(len(data)) || len(masks) > w*idBound(len(data)) {
				t.Fatalf("decoded %d ids / %d mask words from %d bytes — over-allocation",
					len(ids), len(masks), len(data))
			}
			idsInto := make([][]uint32, 2)
			masksInto := make([][]uint64, 2)
			checkErr(t, DecodeRankLanesInto(data, idsInto, masksInto, w))
		}
	})
}

func FuzzDecodeSections(f *testing.F) {
	secs := []Section{
		{Rank: 0, Slots: [][]uint32{{1, 2}, {3}}},
		{Rank: 1, Slots: [][]uint32{{}, {4, 5, 6}}},
	}
	for _, mode := range []Mode{ModeOff, ModeRaw, ModeAdaptive} {
		b, _ := (*Selector)(nil).EncodeSections(secs, 0, mode)
		f.Add(b)
		if len(b) > 2 {
			f.Add(b[:len(b)-2])
		}
	}
	// Every hint a decode can report: a repeat in a delta stream, a raw block
	// out of order, a bitmap.
	for _, mode := range []Mode{ModeDelta, ModeRaw, ModeBitmap} {
		b, _ := (*Selector)(nil).EncodeSections([]Section{{Rank: 2, Slots: [][]uint32{{7, 7, 9}, {9, 7, 8}}}, {Rank: 3, Slots: [][]uint32{{0, 1, 2, 3, 5}, nil}}}, 0, mode)
		f.Add(b)
	}
	f.Add([]byte{})
	for _, b := range recordSectionSeeds(ModeOff, ModeRaw, ModeAdaptive) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, gpus := range []int{1, 2} {
			// w = 0: plain ids; w > 0: records, a mask section behind every
			// id block.
			for _, w := range []int{0, 1, 2} {
				out, err := DecodeSectionsScratch(data, gpus, w, 4, nil, nil, nil)
				checkErr(t, err)
				if err != nil {
					continue
				}
				total := 0
				for _, sec := range out {
					for s, slot := range sec.Slots {
						total += len(slot)
						// A relay unions on the hint: one stronger than the ids
						// would drop or misorder them silently.
						if want := hintOf(slot); sec.Hints[s] != want || w > 0 && want != HintSet {
							t.Fatalf("w=%d: slot %v decoded with hint %d, its ids say %d", w, slot, sec.Hints[s], want)
						}
						if w > 0 && len(sec.Masks[s]) != w*len(slot) {
							t.Fatalf("w=%d: slot of %d ids decoded %d lane words", w, len(slot), len(sec.Masks[s]))
						}
					}
				}
				if total > idBound(len(data)) {
					t.Fatalf("decoded %d ids from %d bytes — over-allocation", total, len(data))
				}
			}
		}
	})
}

// recordSectionSeeds returns two-section messages of records (w = 1 and 2,
// two slots each), each whole and truncated.
func recordSectionSeeds(modes ...Mode) [][]byte {
	var out [][]byte
	for _, w := range []int{1, 2} {
		secs := []Section{
			{Rank: 1, Slots: [][]uint32{{3, 9, 300}, nil}},
			{Rank: 3, Slots: [][]uint32{{0, 1, 2, 3, 5}, {7}}},
		}
		for i := range secs {
			secs[i].Masks = make([][]uint64, 2)
			for s, ids := range secs[i].Slots {
				for j := 0; j < len(ids)*w; j++ {
					secs[i].Masks[s] = append(secs[i].Masks[s], uint64(j+s+1)<<(5*j))
				}
			}
		}
		for _, mode := range modes {
			b, _ := (*Selector)(nil).EncodeSections(secs, w, mode)
			out = append(out, b, b[:len(b)-2])
		}
	}
	return out
}
