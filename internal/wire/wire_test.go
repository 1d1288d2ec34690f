package wire

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// sortedOf returns the sorted permutation of ids (multiset preserved).
func sortedOf(ids []uint32) []uint32 {
	out := append([]uint32(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// uniqueOf returns the sorted duplicate-free version of ids.
func uniqueOf(ids []uint32) []uint32 {
	s := sortedOf(ids)
	if len(s) == 0 {
		return s
	}
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

func equalIDs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// roundTrip encodes ids under mode and decodes the block back.
func roundTrip(t *testing.T, ids []uint32, mode Mode) ([]uint32, Scheme) {
	t.Helper()
	buf, scheme := Append(nil, ids, mode)
	got, n, decScheme, err := Decode(buf)
	if err != nil {
		t.Fatalf("mode %v: decode failed: %v", mode, err)
	}
	if n != len(buf) {
		t.Fatalf("mode %v: decode consumed %d of %d bytes", mode, n, len(buf))
	}
	if decScheme != scheme {
		t.Fatalf("mode %v: scheme mismatch: encoded %v, decoded %v", mode, scheme, decScheme)
	}
	return got, scheme
}

// checkRoundTrip asserts the per-mode round-trip contract: raw is exact,
// delta is the sorted permutation, bitmap/adaptive preserve at least the
// set (and the multiset whenever the encoding is lossless).
func checkRoundTrip(t *testing.T, ids []uint32, mode Mode) {
	t.Helper()
	got, scheme := roundTrip(t, ids, mode)
	switch scheme {
	case SchemeRaw:
		if !equalIDs(got, ids) {
			t.Fatalf("mode %v/raw: got %v, want %v", mode, got, ids)
		}
	case SchemeDelta:
		if want := sortedOf(ids); !equalIDs(got, want) {
			t.Fatalf("mode %v/delta: got %v, want sorted %v", mode, got, want)
		}
	case SchemeBitmap:
		if want := uniqueOf(ids); !equalIDs(got, want) {
			t.Fatalf("mode %v/bitmap: got %v, want unique %v", mode, got, want)
		}
		if mode == ModeAdaptive && len(got) != len(ids) {
			t.Fatalf("adaptive picked bitmap for input with duplicates (%d ids → %d)", len(ids), len(got))
		}
	}
}

var encodeModes = []Mode{ModeAdaptive, ModeRaw, ModeDelta, ModeBitmap}

func TestRoundTripFixedCases(t *testing.T) {
	cases := map[string][]uint32{
		"empty":            {},
		"single-zero":      {0},
		"single-max":       {1<<32 - 1},
		"pair":             {7, 3},
		"duplicates":       {5, 5, 5, 5},
		"dense-range":      seq(0, 512),
		"dense-offset":     seq(100000, 300),
		"sparse-huge-gaps": {0, 1 << 20, 1 << 28, 1<<32 - 1},
		"unsorted-mixed":   {9, 2, 2, 1<<31 - 1, 0, 63, 64, 65},
		"word-boundary":    {63, 64, 127, 128, 191, 192},
	}
	for name, ids := range cases {
		for _, mode := range encodeModes {
			in := append([]uint32(nil), ids...)
			checkRoundTrip(t, in, mode)
			if !equalIDs(in, ids) {
				t.Fatalf("%s/%v: Append mutated its input", name, mode)
			}
		}
	}
}

func seq(start uint32, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = start + uint32(i)
	}
	return out
}

// TestRoundTripProperty fuzzes random id sets of varying density and size
// through every mode.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(2000)
		max := uint32(1) << uint(3+rng.Intn(29)) // universe from 8 to 2^31
		ids := make([]uint32, n)
		for i := range ids {
			ids[i] = rng.Uint32() % max
		}
		for _, mode := range encodeModes {
			checkRoundTrip(t, ids, mode)
		}
	}
}

// TestAdaptiveSelectsSmallest verifies the adaptive block is never larger
// than any forced scheme's block for the same input.
func TestAdaptiveSelectsSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(1000)
		max := uint32(1) << uint(4+rng.Intn(27))
		ids := make([]uint32, n)
		for i := range ids {
			ids[i] = rng.Uint32() % max
		}
		adaptive, _ := Append(nil, ids, ModeAdaptive)
		for _, mode := range []Mode{ModeRaw, ModeDelta, ModeBitmap} {
			forced, _ := Append(nil, ids, mode)
			if len(adaptive) > len(forced) {
				t.Fatalf("adaptive block (%d bytes) larger than %v block (%d bytes) for %d ids",
					len(adaptive), mode, len(forced), n)
			}
		}
	}
}

// TestSchemeSelectionBoundaries pins the scheme choice on shapes engineered
// to favour each encoding.
func TestSchemeSelectionBoundaries(t *testing.T) {
	cases := []struct {
		name string
		ids  []uint32
		want Scheme
	}{
		{"empty picks raw", nil, SchemeRaw},
		{"scattered high ids pick raw",
			[]uint32{4000000000, 1000000000, 3000000000, 2000000000}, SchemeRaw},
		{"clustered sorted ids pick delta", seqStride(1<<20, 1000, 3), SchemeDelta},
		{"dense range picks bitmap", seq(0, 4096), SchemeBitmap},
		{"dense range with duplicates cannot pick bitmap",
			append(seq(0, 4096), 0), SchemeDelta},
	}
	for _, tc := range cases {
		_, scheme := Append(nil, tc.ids, ModeAdaptive)
		if scheme != tc.want {
			t.Errorf("%s: adaptive chose %v, want %v", tc.name, scheme, tc.want)
		}
	}
}

func seqStride(start uint32, n int, stride uint32) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = start + uint32(i)*stride
	}
	return out
}

// TestDecodeRejectsTruncation truncates valid blocks at every possible
// length; none may decode successfully.
func TestDecodeRejectsTruncation(t *testing.T) {
	inputs := [][]uint32{{}, {1}, seq(0, 200), {4, 9, 1 << 30, 77, 77}}
	for _, ids := range inputs {
		for _, mode := range encodeModes {
			buf, scheme := Append(nil, ids, mode)
			for cut := 0; cut < len(buf); cut++ {
				if _, _, _, err := Decode(buf[:cut]); err == nil {
					t.Fatalf("scheme %v: truncation to %d/%d bytes decoded successfully",
						scheme, cut, len(buf))
				}
			}
		}
	}
}

// TestDecodeRejectsCorruption flips every bit of valid blocks; decode must
// either error or (never) silently return the original ids from a mutated
// buffer whose checksum still matched.
// Every decode error on a block is born wrapping ErrCorrupt — no boundary
// re-types it — whatever mode encoded the block, ModeOff's raw blocks
// included.
func TestDecodeRejectsCorruption(t *testing.T) {
	inputs := [][]uint32{{3}, seq(50, 100), {1, 1000, 1 << 25}}
	for _, ids := range inputs {
		for _, mode := range append([]Mode{ModeOff}, encodeModes...) {
			buf, scheme := Append(nil, ids, mode)
			for i := 0; i < len(buf); i++ {
				for bit := 0; bit < 8; bit++ {
					corrupt := append([]byte(nil), buf...)
					corrupt[i] ^= 1 << bit
					if _, _, _, err := Decode(corrupt); !errors.Is(err, ErrCorrupt) {
						t.Fatalf("mode %v scheme %v: flipping byte %d bit %d: err = %v, want ErrCorrupt", mode, scheme, i, bit, err)
					}
				}
			}
		}
	}
}

func TestDecodeRejectsHugeCount(t *testing.T) {
	// A handcrafted raw block claiming 2^40 ids must be rejected by the
	// pre-allocation bound, not by an attempted 4 TB allocation.
	buf, _ := Append(nil, []uint32{1, 2, 3}, ModeRaw)
	corrupt := append([]byte{buf[0]}, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10)
	corrupt = append(corrupt, buf[2:]...)
	if _, _, _, err := Decode(corrupt); err == nil {
		t.Fatal("absurd id count decoded successfully")
	}
}

func TestEncodeDecodeRank(t *testing.T) {
	slots := [][]uint32{seq(0, 300), nil, {9, 2, 9}, {1 << 31}}
	for _, mode := range encodeModes {
		buf, st := EncodeRank(slots, mode)
		if st.EncodedBytes != int64(len(buf)) {
			t.Fatalf("mode %v: stats say %d bytes, buffer has %d", mode, st.EncodedBytes, len(buf))
		}
		if want := int64(4 * (300 + 0 + 3 + 1)); st.RawBytes != want {
			t.Fatalf("mode %v: raw bytes %d, want %d", mode, st.RawBytes, want)
		}
		var blocks int64
		for _, c := range st.Selected {
			blocks += c
		}
		if blocks != int64(len(slots)) {
			t.Fatalf("mode %v: %d scheme selections for %d slots", mode, blocks, len(slots))
		}
		got, err := DecodeRank(buf, len(slots))
		if err != nil {
			t.Fatalf("mode %v: DecodeRank: %v", mode, err)
		}
		for s := range slots {
			want := uniqueOf(slots[s])
			if mode == ModeRaw {
				want = slots[s]
			} else if got2 := sortedOf(slots[s]); len(got[s]) == len(got2) {
				want = got2
			}
			if !equalIDs(got[s], want) {
				t.Fatalf("mode %v slot %d: got %v, want %v", mode, s, got[s], want)
			}
		}
	}
}

func TestDecodeRankRejectsTrailing(t *testing.T) {
	buf, _ := EncodeRank([][]uint32{{1}, {2}}, ModeAdaptive)
	if _, err := DecodeRank(append(buf, 0), 2); err == nil {
		t.Fatal("trailing byte went undetected")
	}
	if _, err := DecodeRank(buf, 3); err == nil {
		t.Fatal("missing slot went undetected")
	}
	if _, err := DecodeRank(buf[:len(buf)-1], 2); err == nil {
		t.Fatal("truncated final slot went undetected")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{RawBytes: 4, EncodedBytes: 2, Selected: [NumSchemes]int64{1, 0, 2}}
	a.Add(Stats{RawBytes: 6, EncodedBytes: 3, Selected: [NumSchemes]int64{0, 5, 1}})
	want := Stats{RawBytes: 10, EncodedBytes: 5, Selected: [NumSchemes]int64{1, 5, 3}}
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("Stats.Add: got %+v, want %+v", a, want)
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{
		"": ModeOff, "off": ModeOff, "adaptive": ModeAdaptive,
		"raw": ModeRaw, "delta": ModeDelta, "bitmap": ModeBitmap,
	} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseMode("zstd"); err == nil {
		t.Error("ParseMode accepted an unknown mode")
	}
}

// TestDecodeRejectsDeltaGapWrap hand-crafts a delta block whose gap varint
// wraps uint64 addition back into uint32 range; even with a valid checksum
// it must be rejected, never silently decoded to a wrong id.
func TestDecodeRejectsDeltaGapWrap(t *testing.T) {
	block := []byte{byte(SchemeDelta)}
	block = binary.AppendUvarint(block, 2)              // two ids
	block = binary.AppendUvarint(block, 4)              // first id = 4
	block = binary.AppendUvarint(block, math.MaxUint64) // gap wraps 4 → 3
	block = binary.LittleEndian.AppendUint32(block, crc32.Checksum(block, crcTable))
	if ids, _, _, err := Decode(block); err == nil {
		t.Fatalf("wrapping delta gap decoded successfully to %v", ids)
	}
}
