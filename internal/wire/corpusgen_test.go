package wire

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
)

// TestGenerateSeedCorpus writes the committed seed corpus under
// testdata/fuzz/. Gated behind WIRE_GEN_CORPUS=1 so normal test runs skip it.
func TestGenerateSeedCorpus(t *testing.T) {
	if os.Getenv("WIRE_GEN_CORPUS") != "1" {
		t.Skip("set WIRE_GEN_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	// writeAs writes inputs as testdata/fuzz/<target>/<prefix>-NNN.
	writeAs := func(target, prefix string, inputs [][]byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, in := range inputs {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(in)) + ")\n"
			name := filepath.Join(dir, fmt.Sprintf("%s-%03d", prefix, i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	write := func(target string, inputs [][]byte) { writeAs(target, "seed", inputs) }

	// ModeOff messages come last in every corpus, after the entries that
	// predate them, so those keep their file names.
	offBlocks := func(wrap func(block []byte) []byte) [][]byte {
		var out [][]byte
		for _, ids := range seedIDSets {
			out = append(out, blockVariants(wrap(appendRaw(nil, ids, 0)))...)
		}
		return out
	}
	one := func(block []byte) []byte { return block }

	// A packed pairs block comes last: its scheme byte is no id block's.
	write("FuzzDecode", slices.Concat(blockSeeds(one), offBlocks(one), [][]byte{packedPairSeed()}))
	write("FuzzDecodeRank", slices.Concat(blockSeeds(twoSlots), offBlocks(twoSlots)))

	// The seed-NNN pairs files predate the packed scheme and are no longer
	// written: their varint delta blocks (scheme byte 1) stay in the corpus as
	// corrupt inputs, beside the packed-NNN files written here.
	writeAs("FuzzDecodePairs", "packed", slices.Concat(pairBlockSeeds(pairEncoders...), [][]byte{{}},
		pairBlockSeeds(pairEncoders[0]), lanePairSeeds(laneSeedModes...)))

	write("FuzzDecodeRecords", slices.Concat(recordBlockSeeds(recordSeedModes...), [][]byte{{}, {0x01, 0x00}}, recordBlockSeeds(ModeOff)))

	write("FuzzDecodeSections", slices.Concat(sectionSeeds(sectionSeedModes...), [][]byte{{}}, recordSectionSeeds(sectionSeedModes...)))
}
