package wire

// Native fuzz targets for every wire decoder. The contract under arbitrary
// bytes: a decoder returns a wire.ErrCorrupt-typed error or a valid decode —
// it never panics, and it never lets a corrupt length field drive a huge
// allocation (the bitmap scheme's 64 ids per 8-byte word bounds any honest
// decode to at most 8 ids per input byte, plus small framing slack).
//
// Seed corpora live in testdata/fuzz/<target>/ (valid encodings of every
// scheme, from its writer or from the adaptive mode on shaped inputs, plus
// truncations; corpusgen_test.go writes them); `go test` replays them on every
// run, and `go test -fuzz=FuzzDecode...` explores from there.

import (
	"errors"
	"slices"
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

// seedIDSets are the id lists every id target's seeds encode.
var seedIDSets = [][]uint32{
	{},
	{1, 2, 3},
	{0, 7, 63, 64, 65, 1 << 20, 1<<32 - 1},
	{5, 5, 5, 9},
}

// seedEncodings returns ids as the four blocks the id targets' seeds take of
// them, each through its writer: raw, delta, bitmap — delta again where a
// bitmap cannot carry the ids (a repeat, or an id near 2^32; see bitmapFits)
// — and the block the adaptive mode picks.
func seedEncodings(ids []uint32) [][]byte {
	sorted := sortedOf(ids)
	bitmap := appendDelta(nil, sorted, 0)
	if bitmapFits(ids) {
		bitmap = appendBitmap(nil, sorted, 0)
	}
	adaptive, _ := encodeAdaptive(ids)
	return [][]byte{appendRaw(nil, ids, 0), appendDelta(nil, sorted, 0), bitmap, adaptive}
}

// blockVariants returns b and, when it is longer than two bytes, its first
// half and a copy with one bit flipped.
func blockVariants(b []byte) [][]byte {
	if len(b) <= 2 {
		return [][]byte{b}
	}
	flipped := append([]byte(nil), b...)
	flipped[len(flipped)/2] ^= 0x10
	return [][]byte{b, b[:len(b)/2], flipped}
}

// blockSeeds returns the corpus floor every id target shares: each
// seedEncodings block of each seedIDSets list, wrapped into the target's
// message, with its variants; then an empty and a one-byte input.
func blockSeeds(wrap func(block []byte) []byte) [][]byte {
	var out [][]byte
	for _, ids := range seedIDSets {
		for _, block := range seedEncodings(ids) {
			out = append(out, blockVariants(wrap(block))...)
		}
	}
	return append(out, []byte{}, []byte{0xff})
}

// twoSlots wraps a block as a two-slot rank message holding it twice.
func twoSlots(block []byte) []byte { return slices.Concat(block, block) }

// The message seeds' modes, in corpus order. The committed files were
// written when raw and packed could still be forced; on these seed inputs
// those modes wrote the bytes ModeOff and ModeAdaptive write, so those two
// stand in their places and every file keeps its name and its bytes.
var (
	sectionSeedModes = []Mode{ModeOff, ModeOff, ModeAdaptive}               // off, raw, adaptive
	laneSeedModes    = []Mode{ModeOff, ModeOff, ModeAdaptive, ModeAdaptive} // off, raw, packed, adaptive
	recordSeedModes  = []Mode{ModeOff, ModeAdaptive, ModeAdaptive}          // raw, delta, adaptive
)

// packedPairSeed is a valid packed pairs block: a scheme byte no id or record
// decoder may accept.
func packedPairSeed() []byte {
	b, _ := packedEncoder.encode([]frontier.Pair{{ID: 1, Val: 2}, {ID: 3, Val: 4<<32 | 1}})
	return b
}

func FuzzDecode(f *testing.F) {
	for _, b := range blockSeeds(func(block []byte) []byte { return block }) {
		f.Add(b)
	}
	f.Add(packedPairSeed())
	f.Fuzz(func(t *testing.T, data []byte) {
		ids, n, _, err := decodeOne(data)
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
	for _, b := range blockSeeds(twoSlots) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, gpus := range []int{1, 2, 4} {
			slots := make([][]uint32, gpus)
			err := DecodeRankInto(data, slots)
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
		}
	})
}

// fuzzPairSets are the pairs every FuzzDecodePairs seed encodes: empty, small,
// extreme values, one pair, all-equal pairs (zero-width columns) and a
// replay-shaped block (parent<<32 | level) in bin order.
var fuzzPairSets = [][]frontier.Pair{
	{},
	{{ID: 1, Val: 10}, {ID: 2, Val: 20}},
	{{ID: 1 << 30, Val: 1 << 60}, {ID: 1<<32 - 1, Val: 0}},
	{{ID: 1<<32 - 1, Val: 1<<64 - 1}},
	{{ID: 77, Val: 9<<32 | 4}, {ID: 77, Val: 9<<32 | 4}, {ID: 77, Val: 9<<32 | 4}},
	{{ID: 700, Val: 4093<<32 | 3}, {ID: 12, Val: 60000<<32 | 2}, {ID: 513, Val: 4093<<32 | 3}, {ID: 12, Val: 17<<32 | 2}},
}

// pairBlockSeeds returns each fuzzPairSets list through each encoder, whole
// and truncated.
func pairBlockSeeds(encoders ...pairEncoder) [][]byte {
	var out [][]byte
	for _, pairs := range fuzzPairSets {
		for _, enc := range encoders {
			b, _ := enc.encode(pairs)
			out = append(out, b, b[:len(b)-2])
		}
	}
	return out
}

func FuzzDecodePairs(f *testing.F) {
	for _, b := range slices.Concat(pairBlockSeeds(pairEncoders...), [][]byte{{}}, lanePairSeeds(laneSeedModes...)) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pairs, n, _, err := decodePairsInto(data, nil, 0)
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
// each whole and truncated, the pairs in no particular order.
func lanePairSeeds(modes ...Mode) [][]byte {
	slots := [][]frontier.Pair{{{ID: 900, Val: 7<<32 | 2}, {ID: 3, Val: 5<<32 | 2}, {ID: 3, Val: 1 << 40}}, {{ID: 1<<32 - 1, Val: 0}}}
	var out [][]byte
	for _, w := range []int{1, 2} {
		lanes := make([][]uint64, len(slots))
		for s, prs := range slots {
			for i := 0; i < len(prs)*w; i++ {
				lanes[s] = append(lanes[s], uint64(3*i+s+1)<<(9*i))
			}
		}
		for _, mode := range modes {
			b, _ := AppendPairsRank(nil, slots, lanes, w, mode)
			out = append(out, b, b[:len(b)-2])
		}
	}
	return out
}

// recordBlockSeeds returns one record block of ids {3, 9, 300} per mode, at
// w = 1 and 2, each whole and truncated: raw ids and raw masks under ModeOff,
// delta ids and sparse masks under ModeAdaptive.
func recordBlockSeeds(modes ...Mode) [][]byte {
	var out [][]byte
	for _, w := range []int{1, 2} {
		ids := []uint32{3, 9, 300}
		masks := make([]uint64, len(ids)*w)
		for i := range masks {
			masks[i] = uint64(i + 1)
		}
		for _, mode := range modes {
			b, _, _ := AppendRecords(nil, ids, masks, w, mode)
			out = append(out, b, b[:len(b)-2])
		}
	}
	return out
}

func FuzzDecodeRecords(f *testing.F) {
	for _, b := range slices.Concat(recordBlockSeeds(recordSeedModes...), [][]byte{{}, {0x01, 0x00}, packedPairSeed()}) {
		f.Add(b)
	}
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

// sectionSeeds returns a two-section hop message of plain ids per mode, each
// whole and truncated.
func sectionSeeds(modes ...Mode) [][]byte {
	secs := []Section{
		{Rank: 0, Slots: [][]uint32{{1, 2}, {3}}},
		{Rank: 1, Slots: [][]uint32{{}, {4, 5, 6}}},
	}
	var out [][]byte
	for _, mode := range modes {
		b, _ := (*Selector)(nil).AppendSections(nil, secs, 0, mode)
		out = append(out, b, b[:len(b)-2])
	}
	return out
}

func FuzzDecodeSections(f *testing.F) {
	for _, b := range sectionSeeds(sectionSeedModes...) {
		f.Add(b)
	}
	// Every hint a decode can report: ModeOff's raw blocks ascending with a
	// repeat, out of order and a set; adaptive's delta blocks with a repeat
	// and without, a bitmap and a raw block out of order.
	shaped := []Section{{Rank: 2, Slots: [][]uint32{{7, 7, 9}, {9, 7, 8}}}, {Rank: 3, Slots: [][]uint32{{0, 1, 2, 3, 5}, nil}}}
	dense := []Section{{Rank: 1, Slots: [][]uint32{seq(0, 64), {4000000000, 1000000000}}}}
	for _, tc := range []struct {
		secs []Section
		mode Mode
	}{{shaped, ModeOff}, {shaped, ModeAdaptive}, {dense, ModeAdaptive}} {
		b, _ := (*Selector)(nil).AppendSections(nil, tc.secs, 0, tc.mode)
		f.Add(b)
	}
	f.Add([]byte{})
	for _, b := range recordSectionSeeds(sectionSeedModes...) {
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
			b, _ := (*Selector)(nil).AppendSections(nil, secs, w, mode)
			out = append(out, b, b[:len(b)-2])
		}
	}
	return out
}
