package wire

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"gcbfs/internal/frontier"
)

// TestGenerateSeedCorpus writes the committed seed corpus under
// testdata/fuzz/. Gated behind WIRE_GEN_CORPUS=1 so normal test runs skip it.
func TestGenerateSeedCorpus(t *testing.T) {
	if os.Getenv("WIRE_GEN_CORPUS") != "1" {
		t.Skip("set WIRE_GEN_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	write := func(target string, inputs [][]byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, in := range inputs {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(in)) + ")\n"
			name := filepath.Join(dir, fmt.Sprintf("seed-%03d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	// ModeOff messages come last in every corpus, after the entries that
	// predate them, so those keep their file names.
	blockSeeds := func(encode func(ids []uint32, mode Mode) []byte) [][]byte {
		idSets := [][]uint32{
			{},
			{1, 2, 3},
			{0, 7, 63, 64, 65, 1 << 20, 1<<32 - 1},
			{5, 5, 5, 9},
		}
		var out [][]byte
		add := func(ids []uint32, mode Mode) {
			b := encode(ids, mode)
			out = append(out, b)
			if len(b) > 2 {
				out = append(out, b[:len(b)/2])
				flipped := append([]byte(nil), b...)
				flipped[len(flipped)/2] ^= 0x10
				out = append(out, flipped)
			}
		}
		for _, ids := range idSets {
			for _, mode := range []Mode{ModeRaw, ModeDelta, ModeBitmap, ModeAdaptive} {
				add(ids, mode)
			}
		}
		out = append(out, []byte{}, []byte{0xff})
		for _, ids := range idSets {
			add(ids, ModeOff)
		}
		return out
	}

	write("FuzzDecode", blockSeeds(func(ids []uint32, mode Mode) []byte {
		b, _ := Append(nil, ids, mode)
		return b
	}))
	write("FuzzDecodeRank", blockSeeds(func(ids []uint32, mode Mode) []byte {
		b, _ := EncodeRank([][]uint32{ids, ids}, mode)
		return b
	}))

	pairSets := [][]frontier.Pair{
		{},
		{{ID: 1, Val: 10}, {ID: 2, Val: 20}},
		{{ID: 1 << 30, Val: 1 << 60}, {ID: 1<<32 - 1, Val: 0}},
	}
	pairSeeds := func(modes ...Mode) [][]byte {
		var out [][]byte
		for _, pairs := range pairSets {
			for _, mode := range modes {
				b, _ := AppendPairs(nil, pairs, mode)
				out = append(out, b)
				if len(b) > 2 {
					out = append(out, b[:len(b)-2])
				}
			}
		}
		return out
	}
	write("FuzzDecodePairs", slices.Concat(pairSeeds(ModeRaw, ModeDelta, ModeAdaptive), [][]byte{{}}, pairSeeds(ModeOff),
		lanePairSeeds(ModeOff, ModeRaw, ModeDelta, ModeAdaptive)))

	recSeeds := func(modes ...Mode) [][]byte {
		var out [][]byte
		for _, w := range []int{1, 2} {
			ids := []uint32{3, 9, 300}
			masks := make([]uint64, len(ids)*w)
			for i := range masks {
				masks[i] = uint64(i + 1)
			}
			for _, mode := range modes {
				b, _, _ := AppendRecords(nil, ids, masks, w, mode)
				out = append(out, b)
				if len(b) > 2 {
					out = append(out, b[:len(b)-2])
				}
			}
		}
		return out
	}
	write("FuzzDecodeRecords", slices.Concat(recSeeds(ModeRaw, ModeDelta, ModeAdaptive), [][]byte{{}, {0x01, 0x00}}, recSeeds(ModeOff)))

	secs := []Section{
		{Rank: 0, Slots: [][]uint32{{1, 2}, {3}}},
		{Rank: 1, Slots: [][]uint32{{}, {4, 5, 6}}},
	}
	var secSeeds [][]byte
	for _, mode := range []Mode{ModeOff, ModeRaw, ModeAdaptive} {
		b, _ := (*Selector)(nil).EncodeSections(secs, 0, mode)
		secSeeds = append(secSeeds, b)
		if len(b) > 2 {
			secSeeds = append(secSeeds, b[:len(b)-2])
		}
	}
	write("FuzzDecodeSections", slices.Concat(secSeeds, [][]byte{{}}, recordSectionSeeds(ModeOff, ModeRaw, ModeAdaptive)))
}
