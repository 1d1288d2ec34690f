package wire

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
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

// decodeOne parses one block that stands alone (checksum seed 0).
func decodeOne(buf []byte) ([]uint32, int, Scheme, error) {
	return decodeBlock(buf, func(n int) []uint32 { return make([]uint32, 0, n) }, 0)
}

// encodeAdaptive is ids as the one block the adaptive mode writes for them.
func encodeAdaptive(ids []uint32) ([]byte, Scheme) {
	return appendIDs(nil, ids, ModeAdaptive, HintNone, nil, 0)
}

// bitmapFits reports whether the ids are a set a bitmap block carries in at
// most 64 KiB of words — the bound a test keeps its bitmap writes to.
func bitmapFits(ids []uint32) bool {
	set := uniqueOf(ids)
	return len(set) == len(ids) && bitmapPayloadLen(set) <= 1<<16
}

// encoded is one block of a test input and what wrote it.
type encoded struct {
	by     string
	buf    []byte
	scheme Scheme
}

// encodings returns ids as a block of every scheme that carries them, each
// through its writer — raw; delta; bitmap when bitmapFits — and as the block
// the adaptive mode picks.
func encodings(ids []uint32) []encoded {
	out := []encoded{
		{"raw", appendRaw(nil, ids, 0), SchemeRaw},
		{"delta", appendDelta(nil, sortedOf(ids), 0), SchemeDelta},
	}
	if bitmapFits(ids) {
		out = append(out, encoded{"bitmap", appendBitmap(nil, sortedOf(ids), 0), SchemeBitmap})
	}
	buf, scheme := encodeAdaptive(ids)
	return append(out, encoded{"adaptive", buf, scheme})
}

// checkRoundTrip asserts each encoding's round-trip contract: raw is exact,
// delta is the sorted permutation, bitmap the set — and adaptive, which picks
// a bitmap only for a set, keeps the multiset.
func checkRoundTrip(t *testing.T, ids []uint32) {
	t.Helper()
	for _, e := range encodings(ids) {
		got, n, scheme, err := decodeOne(e.buf)
		if err != nil || n != len(e.buf) || scheme != e.scheme {
			t.Fatalf("%s: decode consumed %d of %d bytes, scheme %v (wrote %v), err %v", e.by, n, len(e.buf), scheme, e.scheme, err)
		}
		want := ids
		switch scheme {
		case SchemeDelta:
			want = sortedOf(ids)
		case SchemeBitmap:
			want = uniqueOf(ids)
		}
		if !equalIDs(got, want) {
			t.Fatalf("%s/%v: got %v, want %v", e.by, scheme, got, want)
		}
		if len(got) != len(ids) {
			t.Fatalf("%s/%v: %d ids decoded from %d (a repeat collapsed)", e.by, scheme, len(got), len(ids))
		}
	}
}

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
		in := append([]uint32(nil), ids...)
		checkRoundTrip(t, in)
		if !equalIDs(in, ids) {
			t.Fatalf("%s: an encoder mutated its input", name)
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
// through every writer and the adaptive mode.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(2000)
		max := uint32(1) << uint(3+rng.Intn(29)) // universe from 8 to 2^31
		ids := make([]uint32, n)
		for i := range ids {
			ids[i] = rng.Uint32() % max
		}
		checkRoundTrip(t, ids)
	}
}

// TestAdaptiveSelectsSmallest holds every writer to its exact size function —
// 4n for raw, deltaPayloadLen, bitmapPayloadLen for a set — and the adaptive
// block to the smallest of them.
func TestAdaptiveSelectsSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(1000)
		max := uint32(1) << uint(4+rng.Intn(27))
		ids := make([]uint32, n)
		for i := range ids {
			ids[i] = rng.Uint32() % max
		}
		sorted := sortedOf(ids)
		sizes := map[Scheme]int{SchemeRaw: 4 * n, SchemeDelta: deltaPayloadLen(sorted)}
		if bitmapFits(ids) {
			sizes[SchemeBitmap] = bitmapPayloadLen(sorted)
		}
		smallest := math.MaxInt
		for _, e := range encodings(ids) {
			if e.by == "adaptive" {
				continue
			}
			if want := blockLen(n, sizes[e.scheme]); len(e.buf) != want {
				t.Fatalf("%d ids: %v block of %d bytes, its size function says %d", n, e.scheme, len(e.buf), want)
			}
			smallest = min(smallest, len(e.buf))
		}
		adaptive, scheme := encodeAdaptive(ids)
		if len(adaptive) != smallest {
			t.Fatalf("%d ids: adaptive %v block of %d bytes, the smallest writer's %d", n, scheme, len(adaptive), smallest)
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
		_, scheme := encodeAdaptive(tc.ids)
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

// TestDecodeRejectsTruncation truncates valid blocks of every scheme at every
// possible length; none may decode successfully.
func TestDecodeRejectsTruncation(t *testing.T) {
	inputs := [][]uint32{{}, {1}, seq(0, 200), {4, 9, 1 << 30, 77, 77}}
	for _, ids := range inputs {
		for _, e := range encodings(ids) {
			for cut := 0; cut < len(e.buf); cut++ {
				if _, _, _, err := decodeOne(e.buf[:cut]); err == nil {
					t.Fatalf("%s/%v: truncation to %d/%d bytes decoded successfully",
						e.by, e.scheme, cut, len(e.buf))
				}
			}
		}
	}
}

// TestDecodeRejectsCorruption flips every bit of valid blocks of every scheme;
// decode must error. Every decode error on a block is born wrapping
// ErrCorrupt — no boundary re-types it — whatever wrote the block, the raw
// writer ModeOff's blocks come from included.
func TestDecodeRejectsCorruption(t *testing.T) {
	inputs := [][]uint32{{3}, seq(50, 100), {1, 1000, 1 << 25}}
	for _, ids := range inputs {
		for _, e := range encodings(ids) {
			for i := 0; i < len(e.buf); i++ {
				for bit := 0; bit < 8; bit++ {
					corrupt := append([]byte(nil), e.buf...)
					corrupt[i] ^= 1 << bit
					if _, _, _, err := decodeOne(corrupt); !errors.Is(err, ErrCorrupt) {
						t.Fatalf("%s/%v: flipping byte %d bit %d: err = %v, want ErrCorrupt", e.by, e.scheme, i, bit, err)
					}
				}
			}
		}
	}
}

func TestDecodeRejectsHugeCount(t *testing.T) {
	// A handcrafted raw block claiming 2^40 ids must be rejected by the
	// pre-allocation bound, not by an attempted 4 TB allocation.
	buf := appendRaw(nil, []uint32{1, 2, 3}, 0)
	corrupt := append([]byte{buf[0]}, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10)
	corrupt = append(corrupt, buf[2:]...)
	if _, _, _, err := decodeOne(corrupt); err == nil {
		t.Fatal("absurd id count decoded successfully")
	}
}

// TestEncodeDecodeRank: a rank message is one block per slot; Stats count it
// under each mode's charging rule, and DecodeRankInto gives back each slot —
// in its order under ModeOff, as its multiset under ModeAdaptive.
func TestEncodeDecodeRank(t *testing.T) {
	slots := [][]uint32{seq(0, 300), nil, {9, 2, 9}, {1 << 31}}
	for _, mode := range []Mode{ModeOff, ModeAdaptive} {
		buf, st := (*Selector)(nil).AppendRank(nil, 0, slots, nil, mode)
		if want := int64(4 * (300 + 0 + 3 + 1)); st.RawBytes != want {
			t.Fatalf("mode %v: raw bytes %d, want %d", mode, st.RawBytes, want)
		}
		var blocks int64
		for _, c := range st.Selected {
			blocks += c
		}
		if mode == ModeOff {
			if st.EncodedBytes != st.RawBytes || blocks != 0 {
				t.Fatalf("off: stats %+v, want the fixed-width payload and no scheme", st)
			}
		} else if st.EncodedBytes != int64(len(buf)) || blocks != int64(len(slots)) {
			t.Fatalf("adaptive: stats %+v for %d bytes and %d slots", st, len(buf), len(slots))
		}
		got := make([][]uint32, len(slots))
		if err := DecodeRankInto(buf, got); err != nil {
			t.Fatalf("mode %v: DecodeRankInto: %v", mode, err)
		}
		for s := range slots {
			want, have := slots[s], got[s]
			if mode == ModeAdaptive {
				want, have = sortedOf(want), sortedOf(have)
			}
			if !equalIDs(have, want) {
				t.Fatalf("mode %v slot %d: got %v, want %v", mode, s, got[s], slots[s])
			}
		}
	}
}

func TestDecodeRankRejectsTrailing(t *testing.T) {
	buf, _ := (*Selector)(nil).AppendRank(nil, 0, [][]uint32{{1}, {2}}, nil, ModeAdaptive)
	if err := DecodeRankInto(append(buf, 0), make([][]uint32, 2)); err == nil {
		t.Fatal("trailing byte went undetected")
	}
	if err := DecodeRankInto(buf, make([][]uint32, 3)); err == nil {
		t.Fatal("missing slot went undetected")
	}
	if err := DecodeRankInto(buf[:len(buf)-1], make([][]uint32, 2)); err == nil {
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

// TestParseMode: the two modes parse; the retired forced spellings are
// errors naming both.
func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{"": ModeOff, "off": ModeOff, "adaptive": ModeAdaptive} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"raw", "delta", "bitmap", "zstd"} {
		_, err := ParseMode(s)
		if err == nil || !strings.Contains(err.Error(), "off") || !strings.Contains(err.Error(), "adaptive") {
			t.Errorf("ParseMode(%q): err %v, want one naming off and adaptive", s, err)
		}
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
	if ids, _, _, err := decodeOne(block); err == nil {
		t.Fatalf("wrapping delta gap decoded successfully to %v", ids)
	}
}
