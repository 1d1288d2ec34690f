package frontier

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
)

func cmpPair(a, b Pair) int {
	if c := cmp.Compare(a.ID, b.ID); c != 0 {
		return c
	}
	return cmp.Compare(a.Val, b.Val)
}

// idCases are the shapes the radix sort must agree with slices.Sort on:
// both sides of the insertion-sort threshold, inputs the sortedness
// short-cut sees, and keys at the top of the 32-bit range.
func idCases() map[string][]uint32 {
	rng := rand.New(rand.NewSource(15))
	random := func(n int, keyRange uint32) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = uint32(rng.Int63n(int64(keyRange)))
		}
		return out
	}
	ramp := func(n int, step int) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = uint32(1000 + i*step)
		}
		return out
	}
	desc := ramp(500, 3)
	slices.Reverse(desc)
	cases := map[string][]uint32{
		"empty":       {},
		"one":         {7},
		"threshold-1": random(radixMinLen-1, 1<<20),
		"threshold":   random(radixMinLen, 1<<20),
		"threshold+1": random(radixMinLen+1, 1<<20),
		"all-equal":   slices.Repeat([]uint32{42}, 300),
		"all-zero":    make([]uint32, 300),
		"ascending":   ramp(500, 3),
		"descending":  desc,
		"two-run":     append(ramp(200, 5), ramp(200, 7)...),
		"max-keyed":   append(random(200, 1<<10), math.MaxUint32, 0, math.MaxUint32-1),
		"dup-heavy":   random(600, 16),
		"10-bit":      random(700, 1<<10),
		"17-bit":      random(700, 1<<17),
		"32-bit":      random(700, math.MaxUint32),
	}
	return cases
}

func TestSortIDsMatchesSlicesSort(t *testing.T) {
	for name, in := range idCases() {
		want := slices.Clone(in)
		slices.Sort(want)
		for _, withScratch := range []bool{true, false} {
			got := slices.Clone(in)
			var scratch *[]uint32
			if withScratch {
				scratch = new([]uint32)
			}
			SortIDs(got, scratch)
			if !slices.Equal(got, want) {
				t.Errorf("%s (scratch=%v): SortIDs differs from slices.Sort", name, withScratch)
			}
		}
	}
}

// TestSortIDsReusesScratch pins the allocation contract: once the scratch
// has seen the largest block, sorting allocates nothing.
func TestSortIDsReusesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := make([]uint32, 4096)
	for i := range in {
		in[i] = rng.Uint32() >> 12
	}
	work := make([]uint32, len(in))
	var scratch []uint32
	copy(work, in)
	SortIDs(work, &scratch)
	if allocs := testing.AllocsPerRun(20, func() {
		copy(work, in)
		SortIDs(work, &scratch)
	}); allocs != 0 {
		t.Errorf("SortIDs with warm scratch allocates %.0f times per call", allocs)
	}
}

func pairCases() map[string][]Pair {
	rng := rand.New(rand.NewSource(16))
	random := func(n int, idRange uint32, valRange uint64) []Pair {
		out := make([]Pair, n)
		for i := range out {
			out[i] = Pair{ID: uint32(rng.Int63n(int64(idRange))), Val: rng.Uint64() % valRange}
		}
		return out
	}
	// Equal IDs with descending Val: the ID pass is stable, so only the run
	// pass can put these right.
	descVal := func(n, runLen int) []Pair {
		out := make([]Pair, n)
		for i := range out {
			out[i] = Pair{ID: uint32(i / runLen), Val: uint64(n - i)}
		}
		return out
	}
	sorted := random(400, 1<<12, 1<<40)
	slices.SortFunc(sorted, cmpPair)
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	return map[string][]Pair{
		"empty":            {},
		"one":              {{ID: 3, Val: 9}},
		"threshold-1":      random(radixMinLen-1, 1<<16, 1<<40),
		"threshold":        random(radixMinLen, 1<<16, 1<<40),
		"threshold+1":      random(radixMinLen+1, 1<<16, 1<<40),
		"all-equal":        slices.Repeat([]Pair{{ID: 5, Val: 5}}, 300),
		"ascending":        sorted,
		"descending":       reversed,
		"two-run":          append(slices.Clone(sorted), sorted...),
		"desc-val-short":   descVal(600, 4),
		"desc-val-long":    descVal(600, 3*radixMinLen),
		"one-id-many-vals": random(300, 1, math.MaxUint64),
		"max-keyed":        append(random(200, 1<<10, 1<<20), Pair{ID: math.MaxUint32, Val: math.MaxUint64}, Pair{ID: math.MaxUint32, Val: 0}, Pair{ID: 0, Val: math.MaxUint64}),
		"dup-heavy":        random(600, 8, 4),
		"parent-shaped":    random(700, 1<<10, 1<<36),
	}
}

func TestSortPairsMatchesSortFunc(t *testing.T) {
	for name, in := range pairCases() {
		want := slices.Clone(in)
		slices.SortFunc(want, cmpPair)
		for _, withScratch := range []bool{true, false} {
			got := slices.Clone(in)
			var scratch *[]Pair
			if withScratch {
				scratch = new([]Pair)
			}
			SortPairs(got, scratch)
			if !slices.Equal(got, want) {
				t.Errorf("%s (scratch=%v): SortPairs differs from slices.SortFunc", name, withScratch)
			}
		}
	}
}

// FuzzSortIDs checks SortIDs against slices.Sort on arbitrary key bytes; the
// shift byte narrows the key range so the fuzzer reaches every digit plan.
func FuzzSortIDs(f *testing.F) {
	for _, in := range idCases() {
		f.Add(idBytes(in), uint8(0))
	}
	f.Add(idBytes(idCases()["32-bit"]), uint8(22))
	f.Fuzz(func(t *testing.T, data []byte, shift uint8) {
		ids := make([]uint32, len(data)/4)
		for i := range ids {
			ids[i] = binary.LittleEndian.Uint32(data[4*i:]) >> (shift % 32)
		}
		want := slices.Clone(ids)
		slices.Sort(want)
		var scratch []uint32
		SortIDs(ids, &scratch)
		if !slices.Equal(ids, want) {
			t.Fatalf("SortIDs differs from slices.Sort on %d ids (shift %d)", len(ids), shift%32)
		}
	})
}

// FuzzSortPairs checks SortPairs against the (ID, Val) comparison sort. The
// two shifts narrow the ID and Val ranges independently: a narrow ID range
// is what produces the long equal-ID runs of the Val pass.
func FuzzSortPairs(f *testing.F) {
	for _, in := range pairCases() {
		f.Add(pairBytes(in), uint8(0), uint8(0))
	}
	f.Add(pairBytes(pairCases()["parent-shaped"]), uint8(8), uint8(30))
	f.Fuzz(func(t *testing.T, data []byte, idShift, valShift uint8) {
		pairs := make([]Pair, len(data)/12)
		for i := range pairs {
			pairs[i] = Pair{
				ID:  binary.LittleEndian.Uint32(data[12*i:]) >> (idShift % 32),
				Val: binary.LittleEndian.Uint64(data[12*i+4:]) >> (valShift % 64),
			}
		}
		want := slices.Clone(pairs)
		slices.SortFunc(want, cmpPair)
		var scratch []Pair
		SortPairs(pairs, &scratch)
		if !slices.Equal(pairs, want) {
			t.Fatalf("SortPairs differs from slices.SortFunc on %d pairs (shifts %d, %d)", len(pairs), idShift%32, valShift%64)
		}
	})
}

// TestGenerateSortCorpus writes the committed seed corpus of the two fuzz
// targets under testdata/fuzz/ (`go test` replays it on every run). Gated
// behind FRONTIER_GEN_CORPUS=1 so normal test runs skip it.
func TestGenerateSortCorpus(t *testing.T) {
	if os.Getenv("FRONTIER_GEN_CORPUS") != "1" {
		t.Skip("set FRONTIER_GEN_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	write := func(target string, i int, data []byte, shifts ...uint8) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		for _, sh := range shifts {
			body += fmt.Sprintf("uint8(%d)\n", sh)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%03d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ids, pairs := idCases(), pairCases()
	for i, c := range []struct {
		name  string
		shift uint8
	}{
		{"threshold-1", 12}, {"threshold", 12}, {"threshold+1", 0}, {"two-run", 0},
		{"descending", 0}, {"max-keyed", 0}, {"dup-heavy", 0}, {"32-bit", 22}, {"32-bit", 0},
	} {
		write("FuzzSortIDs", i, idBytes(ids[c.name]), c.shift)
	}
	for i, c := range []struct {
		name              string
		idShift, valShift uint8
	}{
		{"threshold-1", 0, 0}, {"threshold", 4, 0}, {"threshold+1", 0, 0}, {"desc-val-short", 0, 0},
		{"desc-val-long", 0, 0}, {"one-id-many-vals", 0, 0}, {"max-keyed", 0, 0},
		{"dup-heavy", 0, 0}, {"parent-shaped", 8, 30},
	} {
		write("FuzzSortPairs", i, pairBytes(pairs[c.name]), c.idShift, c.valShift)
	}
}

func idBytes(ids []uint32) []byte {
	out := make([]byte, 0, 4*len(ids))
	for _, v := range ids {
		out = binary.LittleEndian.AppendUint32(out, v)
	}
	return out
}

func pairBytes(pairs []Pair) []byte {
	out := make([]byte, 0, 12*len(pairs))
	for _, pr := range pairs {
		out = binary.LittleEndian.AppendUint32(out, pr.ID)
		out = binary.LittleEndian.AppendUint64(out, pr.Val)
	}
	return out
}

// sortSizes × sortRanges is the grid both sort benchmarks report, with the
// comparison sort beside the radix sort in every cell.
var (
	sortSizes  = []int{64, 1 << 10, 64 << 10}
	sortRanges = []int{10, 20, 32}
)

var sortSink int

func BenchmarkSortIDs(b *testing.B) {
	for _, n := range sortSizes {
		for _, keyBits := range sortRanges {
			rng := rand.New(rand.NewSource(int64(n + keyBits)))
			in := make([]uint32, n)
			for i := range in {
				in[i] = uint32(rng.Uint64() >> (64 - keyBits))
			}
			work := make([]uint32, n)
			var scratch []uint32
			run := func(name string, sort func()) {
				b.Run(fmt.Sprintf("%s/n=%d/bits=%d", name, n, keyBits), func(b *testing.B) {
					b.SetBytes(int64(4 * n))
					for i := 0; i < b.N; i++ {
						copy(work, in)
						sort()
					}
					sortSink += int(work[0])
				})
			}
			run("radix", func() { SortIDs(work, &scratch) })
			run("slices", func() { slices.Sort(work) })
		}
	}
}

func BenchmarkSortPairs(b *testing.B) {
	for _, n := range sortSizes {
		for _, keyBits := range sortRanges {
			rng := rand.New(rand.NewSource(int64(n + keyBits)))
			in := make([]Pair, n)
			for i := range in {
				// Parent-replay shaped values: a vertex id above a level.
				in[i] = Pair{ID: uint32(rng.Uint64() >> (64 - keyBits)), Val: rng.Uint64()>>28<<parentShapeLevelBits | uint64(rng.Intn(8))}
			}
			work := make([]Pair, n)
			var scratch []Pair
			run := func(name string, sort func()) {
				b.Run(fmt.Sprintf("%s/n=%d/bits=%d", name, n, keyBits), func(b *testing.B) {
					b.SetBytes(int64(12 * n))
					for i := 0; i < b.N; i++ {
						copy(work, in)
						sort()
					}
					sortSink += int(work[0].ID)
				})
			}
			run("radix", func() { SortPairs(work, &scratch) })
			run("slices", func() { slices.SortFunc(work, cmpPair) })
		}
	}
}

// parentShapeLevelBits mirrors core's packing of (parent id, level) into a
// pair value, which is what the pair sort sees on the query path.
const parentShapeLevelBits = 20
