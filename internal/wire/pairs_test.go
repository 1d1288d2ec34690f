package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gcbfs/internal/frontier"
)

func randPairs(rng *rand.Rand, n int) []frontier.Pair {
	pairs := make([]frontier.Pair, n)
	for i := range pairs {
		pairs[i] = frontier.Pair{
			ID:  uint32(rng.Intn(5000)),
			Val: uint64(rng.Intn(1 << 30)),
		}
	}
	return pairs
}

// pairEncoder is one way a test writes a pairs block.
type pairEncoder struct {
	name   string
	encode func(pairs []frontier.Pair) ([]byte, Scheme)
}

// packedEncoder writes a packed block through its writer.
var packedEncoder = pairEncoder{"packed", func(pairs []frontier.Pair) ([]byte, Scheme) {
	f := framePairs(pairs)
	return appendPackedPairs(nil, pairs, &f, 0), SchemePacked
}}

// pairEncoders are the pairs writers and the adaptive mode (ModeOff writes
// through the raw writer).
var pairEncoders = []pairEncoder{
	{"raw", func(pairs []frontier.Pair) ([]byte, Scheme) { return appendRawPairs(nil, pairs, 0), SchemeRaw }},
	packedEncoder,
	{"adaptive", func(pairs []frontier.Pair) ([]byte, Scheme) { return appendPairs(nil, pairs, ModeAdaptive, 0) }},
}

// roundTripPairs encodes pairs, decodes the block and fails unless it
// consumed the whole block and gave back the pairs in their input order.
func roundTripPairs(t *testing.T, what string, pairs []frontier.Pair, enc pairEncoder) ([]byte, Scheme) {
	t.Helper()
	before := slices.Clone(pairs)
	buf, scheme := enc.encode(pairs)
	got, n, gotScheme, err := decodePairsInto(buf, nil, 0)
	if err != nil {
		t.Fatalf("%s %s: %v", what, enc.name, err)
	}
	if n != len(buf) || gotScheme != scheme {
		t.Fatalf("%s %s: consumed %d of %d, scheme %v vs %v", what, enc.name, n, len(buf), gotScheme, scheme)
	}
	if !slices.Equal(got, pairs) {
		t.Fatalf("%s %s/%v: decoded %v, want %v", what, enc.name, scheme, got, pairs)
	}
	if !slices.Equal(pairs, before) {
		t.Fatalf("%s %s: the encoder mutated its input", what, enc.name)
	}
	return buf, scheme
}

// TestPairsRoundTrip checks every pairs writer and the adaptive mode
// round-trip the pairs in their input order; the adaptive block is the
// smaller of the two writers' (raw on a tie), and the packed writer's size is
// packedFrames.payloadLen.
func TestPairsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 80; trial++ {
		pairs := randPairs(rng, rng.Intn(50))
		var bufs [3][]byte
		for i, enc := range pairEncoders {
			bufs[i], _ = roundTripPairs(t, fmt.Sprintf("trial %d", trial), pairs, enc)
		}
		f := framePairs(pairs)
		if want := blockLen(len(pairs), f.payloadLen(len(pairs))); len(bufs[1]) != want {
			t.Fatalf("trial %d: packed block of %d bytes, payloadLen says %d", trial, len(bufs[1]), want)
		}
		want := bufs[0]
		if len(bufs[1]) < len(want) {
			want = bufs[1]
		}
		if !slices.Equal(bufs[2], want) {
			t.Fatalf("trial %d: adaptive block of %d bytes, raw %d, packed %d", trial, len(bufs[2]), len(bufs[0]), len(bufs[1]))
		}
	}
}

// TestPairsAdaptivePicksSmaller: clustered low values must pick packed and
// beat the 12-byte fixed width; scattered ids with huge values must not.
func TestPairsAdaptivePicksSmaller(t *testing.T) {
	clustered := make([]frontier.Pair, 200)
	for i := range clustered {
		clustered[i] = frontier.Pair{ID: uint32(1000 + i), Val: uint64(i % 7)}
	}
	buf, scheme := appendPairs(nil, clustered, ModeAdaptive, 0)
	if scheme != SchemePacked {
		t.Fatalf("clustered pairs picked %v, want packed", scheme)
	}
	if len(buf) >= 12*len(clustered) {
		t.Fatalf("packed block %d B not below fixed-width %d B", len(buf), 12*len(clustered))
	}

	rng := rand.New(rand.NewSource(9))
	scattered := make([]frontier.Pair, 50)
	for i := range scattered {
		scattered[i] = frontier.Pair{ID: rng.Uint32(), Val: rng.Uint64() | 1<<63}
	}
	_, scheme = appendPairs(nil, scattered, ModeAdaptive, 0)
	if scheme != SchemeRaw {
		t.Fatalf("scattered huge-value pairs picked %v, want raw", scheme)
	}
}

// TestPackedSizeIsExact holds the adaptive choice's size function to the
// block the encoder writes.
func TestPackedSizeIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		pairs := randPairs(rng, rng.Intn(70))
		f := framePairs(pairs)
		buf := appendPackedPairs(nil, pairs, &f, 0)
		if want := blockLen(len(pairs), f.payloadLen(len(pairs))); len(buf) != want {
			t.Fatalf("trial %d: %d pairs encode to %d bytes, size function says %d", trial, len(pairs), len(buf), want)
		}
	}
}

// TestPackedEveryWidth round-trips a column of every width 0–32 in each of the
// three columns, its range's both ends present, beside two 4-bit columns, at
// bases from 0 up to the highest a width allows, and at counts that put the
// last values past the fast word loads.
func TestPackedEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for c := 0; c < pairColumns; c++ {
		for w := 0; w <= 32; w++ {
			span := uint64(1)<<w - 1
			for _, base := range []uint64{0, 77, math.MaxUint32 - span} {
				if base+span > math.MaxUint32 {
					continue
				}
				for _, n := range []int{1, 2, 9, 33, 64} {
					var cols [pairColumns][]uint32
					for k := range cols {
						cols[k] = make([]uint32, n)
						for i := range cols[k] {
							if k == c {
								cols[k][i] = uint32(base + uint64(rng.Int63n(int64(span)+1)))
							} else {
								cols[k][i] = 1000 + uint32(rng.Intn(16))
							}
						}
						if k == c {
							cols[k][0], cols[k][n-1] = uint32(base), uint32(base+span)
						} else {
							cols[k][0], cols[k][n-1] = 1000, 1015
						}
					}
					pairs := make([]frontier.Pair, n)
					for i := range pairs {
						pairs[i] = frontier.Pair{ID: cols[0][i], Val: uint64(cols[1][i])<<32 | uint64(cols[2][i])}
					}
					what := fmt.Sprintf("column %d width %d base %d n %d", c, w, base, n)
					if n > 1 {
						if got := framePairs(pairs)[c].width; int(got) != w {
							t.Fatalf("%s: framed at width %d", what, got)
						}
					}
					roundTripPairs(t, what, pairs, packedEncoder)
				}
			}
		}
	}
}

// TestPackedEdgeCases: one pair, all-equal pairs (whose columns have zero
// width, so the ID column is widened to spend a byte per pair) and the
// largest ID and Val, each through the packed writer and adaptive.
func TestPackedEdgeCases(t *testing.T) {
	equal := make([]frontier.Pair, 40)
	for i := range equal {
		equal[i] = frontier.Pair{ID: 4242, Val: 7<<32 | 3}
	}
	top := frontier.Pair{ID: math.MaxUint32, Val: math.MaxUint64}
	for _, tc := range []struct {
		name  string
		pairs []frontier.Pair
	}{
		{"one", []frontier.Pair{{ID: 17, Val: 5<<32 | 2}}},
		{"all-equal", equal},
		{"top", []frontier.Pair{top}},
		{"top-and-zero", []frontier.Pair{top, {}, top}},
		{"top-column-ends", []frontier.Pair{{ID: math.MaxUint32 - 1, Val: math.MaxUint64 - 1<<32}, top}},
	} {
		for _, enc := range pairEncoders[1:] {
			buf, scheme := roundTripPairs(t, tc.name, tc.pairs, enc)
			if scheme != SchemePacked {
				continue
			}
			if payload := len(buf) - blockLen(len(tc.pairs), 0); payload < len(tc.pairs) {
				t.Fatalf("%s: %d payload bytes for %d pairs", tc.name, payload, len(tc.pairs))
			}
		}
	}
	f := framePairs(equal)
	if f[0].width != 8 || f[1].width != 0 || f[2].width != 0 {
		t.Fatalf("all-equal pairs framed at widths %d/%d/%d, want 8/0/0", f[0].width, f[1].width, f[2].width)
	}
}

// TestPackedRejectsEveryBitFlip flips every bit of packed blocks, one at a
// time: each flip must be rejected as corrupt.
func TestPackedRejectsEveryBitFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, pairs := range [][]frontier.Pair{
		randPairs(rng, 1),
		randPairs(rng, 13),
		randPairs(rng, 50),
		{{ID: 9, Val: 1<<32 | 2}, {ID: 9, Val: 1<<32 | 2}},
		{{ID: math.MaxUint32, Val: math.MaxUint64}, {ID: 3, Val: 0}},
	} {
		buf, _ := packedEncoder.encode(pairs)
		for bit := 0; bit < 8*len(buf); bit++ {
			bad := slices.Clone(buf)
			bad[bit/8] ^= 1 << (bit % 8)
			if _, _, _, err := decodePairsInto(bad, nil, 0); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%d pairs: flipping bit %d of %d: err %v", len(pairs), bit, 8*len(buf), err)
			}
		}
	}
}

// col is one hand-made packed column: its base and its bits.
type col struct {
	base uint64
	bits []byte
}

// packedBlock frames a hand-made packed block: scheme byte, count, width
// header, each column's base and bits, and a valid checksum, so a decoder can
// only reject it for what the header says.
func packedBlock(count, widths uint64, cols ...col) []byte {
	b := []byte{byte(SchemePacked)}
	b = binary.AppendUvarint(b, count)
	b = binary.AppendUvarint(b, widths)
	for _, c := range cols {
		b = binary.AppendUvarint(b, c.base)
		b = append(b, c.bits...)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
}

// TestPackedDecoderRejects: a width above 32, a base plus offset past 32
// bits, a count above the payload's byte length, a short or long payload and
// a checksum mismatch are each corrupt. Every one of these checks runs before
// the decoder grows its output.
func TestPackedDecoderRejects(t *testing.T) {
	ok := packedBlock(2, 8, col{5, []byte{1, 2}}, col{}, col{})
	if got, _, _, err := decodePairsInto(ok, nil, 0); err != nil || !slices.Equal(got, []frontier.Pair{{ID: 6}, {ID: 7}}) {
		t.Fatalf("the hand-made block decodes to %v, %v", got, err)
	}
	longBody := append([]byte(nil), ok[:len(ok)-crcLen]...)
	longBody = append(longBody, 0)
	badCRC := slices.Clone(ok)
	badCRC[len(badCRC)-1] ^= 0x80
	for _, tc := range []struct {
		name string
		buf  []byte
	}{
		{"ID width 33", packedBlock(2, 33, col{0, make([]byte, 9)}, col{}, col{})},
		{"low width 33", packedBlock(2, 33<<12, col{}, col{}, col{0, make([]byte, 9)})},
		{"width header past 18 bits", packedBlock(2, 1<<18|8, col{0, []byte{0, 1}}, col{}, col{})},
		{"base + offset past 32 bits", packedBlock(2, 8, col{math.MaxUint32 - 254, []byte{0, 255}}, col{}, col{})},
		{"base past 32 bits", packedBlock(2, 8, col{1 << 32, []byte{0, 1}}, col{}, col{})},
		{"base that wraps 64 bits", packedBlock(2, 1|7<<6, col{math.MaxUint64, []byte{0}}, col{0, []byte{0, 0}}, col{})},
		{"widths below a byte", packedBlock(2, 3|2<<6|2<<12, col{0, []byte{0}}, col{0, []byte{0}}, col{0, []byte{0}})},
		{"count above the payload", packedBlock(40, 8, col{}, col{}, col{})},
		{"short payload", packedBlock(2, 8, col{5, []byte{1}}, col{}, col{})},
		{"long payload", binary.LittleEndian.AppendUint32(longBody, crc32.Checksum(longBody, crcTable))},
		{"checksum", badCRC},
	} {
		if got, _, _, err := decodePairsInto(tc.buf, nil, 0); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decoded %v, err %v", tc.name, got, err)
		}
	}
}

// TestPairsRejectHostileCount: a count far past the block — 2^40 pairs of a
// checksummed header — is refused by the bound on the bytes left, raw or
// packed, before any allocation is sized by it.
func TestPairsRejectHostileCount(t *testing.T) {
	for _, buf := range [][]byte{
		packedBlock(1<<40, 8, col{0, make([]byte, 16)}, col{}, col{}),
		packedBlock(1<<62, 32|32<<6|32<<12, col{0, make([]byte, 8)}, col{0, make([]byte, 8)}, col{0, make([]byte, 8)}),
	} {
		if _, _, _, err := decodePairsInto(buf, nil, 0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("hostile packed count: err %v", err)
		}
		into := [][]frontier.Pair{nil}
		if err := DecodePairsRankInto(buf, into, nil, 0); !errors.Is(err, ErrCorrupt) || cap(into[0]) != 0 {
			t.Fatalf("hostile packed count in a message: err %v, slot grown to %d", err, cap(into[0]))
		}
	}
	raw := []byte{byte(SchemeRaw)}
	raw = binary.AppendUvarint(raw, 1<<40)
	raw = append(raw, make([]byte, 12)...)
	raw = binary.LittleEndian.AppendUint32(raw, crc32.Checksum(raw, crcTable))
	if _, _, _, err := decodePairsInto(raw, nil, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile raw count: err %v", err)
	}
}

// TestIDDecodersRejectPacked: the packed scheme byte is the pairs codec's
// alone; an id block or a record block carrying it is corrupt.
func TestIDDecodersRejectPacked(t *testing.T) {
	buf, _ := packedEncoder.encode([]frontier.Pair{{ID: 1, Val: 2}, {ID: 3, Val: 4}})
	if _, _, _, err := decodeOne(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("id decoder: err %v", err)
	}
	ids := []byte{byte(SchemePacked), 1, 0, 0, 0, 0}
	ids = binary.LittleEndian.AppendUint32(ids, crc32.Checksum(ids, crcTable))
	if _, _, _, err := decodeOne(ids); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("id decoder on a packed-scheme id block: err %v", err)
	}
	if _, _, _, err := DecodeRecordsAppend(ids, 1, nil, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("record decoder: err %v", err)
	}
}

// TestPairsRankRoundTrip covers the whole-message path with stats.
func TestPairsRankRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	slots := [][]frontier.Pair{randPairs(rng, 20), nil, randPairs(rng, 3)}
	buf, st := AppendPairsRank(nil, slots, nil, 0, ModeAdaptive)
	if st.RawBytes != 12*23 {
		t.Fatalf("RawBytes %d, want %d", st.RawBytes, 12*23)
	}
	if st.EncodedBytes != int64(len(buf)) {
		t.Fatalf("EncodedBytes %d, frame %d", st.EncodedBytes, len(buf))
	}
	if st.Selected[SchemePacked] == 0 {
		t.Fatalf("no slot picked packed: %v", st.Selected)
	}
	got := make([][]frontier.Pair, 3)
	if err := DecodePairsRankInto(buf, got, nil, 0); err != nil {
		t.Fatal(err)
	}
	for s := range slots {
		if !slices.Equal(slots[s], got[s]) {
			t.Fatalf("slot %d: decoded %v, want %v", s, got[s], slots[s])
		}
	}
	if err := DecodePairsRankInto(append(buf, 1), got, nil, 0); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if err := DecodePairsRankInto(buf[:len(buf)-1], got, nil, 0); err == nil {
		t.Fatal("truncation accepted")
	}
}

// An empty slot of a pairs message costs one presence bit and no block, a
// message without one carries no presence word, and a presence bit flipped
// either way fails the message: a block claimed by the wrong slot fails its
// checksum, which began from the presence word's.
func TestPairsRankPresenceWord(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, nslots := range []int{1, 3, 8, 9} {
		slots := make([][]frontier.Pair, nslots)
		for s := 0; s < nslots; s += 2 {
			slots[s] = randPairs(rng, 1+s)
		}
		for _, mode := range []Mode{ModeOff, ModeAdaptive} {
			empty, _ := AppendPairsRank(nil, make([][]frontier.Pair, nslots), nil, 0, mode)
			if len(empty) != 1+presenceLen(nslots) {
				t.Fatalf("%d slots, %s: an empty message is %d bytes, want its presence word's %d", nslots, mode, len(empty), 1+presenceLen(nslots))
			}
			full := make([][]frontier.Pair, nslots)
			for s := range full {
				full[s] = []frontier.Pair{{ID: uint32(s)}}
			}
			if msg, _ := AppendPairsRank(nil, full, nil, 0, mode); msg[0] == pairsPresence {
				t.Fatalf("%d slots, %s: a message without an empty slot carries a presence word", nslots, mode)
			}
			buf, _ := AppendPairsRank(nil, slots, nil, 0, mode)
			got := make([][]frontier.Pair, nslots)
			for s := range got {
				got[s] = []frontier.Pair{{ID: 99}}
			}
			if err := DecodePairsRankInto(buf, got, nil, 0); err != nil {
				t.Fatal(err)
			}
			for s := range slots {
				if !slices.Equal(slots[s], got[s]) || (len(slots[s]) == 0) != (len(got[s]) == 0) {
					t.Fatalf("%d slots, %s: slot %d decoded %v, want %v", nslots, mode, s, got[s], slots[s])
				}
			}
			if nslots == 1 {
				continue // every slot has pairs: no presence word
			}
			for bit := 0; bit < 8*(1+presenceLen(nslots)); bit++ {
				bad := slices.Clone(buf)
				bad[bit/8] ^= 1 << (bit % 8)
				if err := DecodePairsRankInto(bad, got, nil, 0); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%d slots, %s: presence bit %d flipped: err %v", nslots, mode, bit, err)
				}
			}
		}
	}
}

// TestPairsRankCarriesLanes: with w > 0 every pair travels with its lane set,
// in the caller's order, in both modes — the adaptive mode's packed blocks
// included, with nothing sorted beforehand.
func TestPairsRankCarriesLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, w := range []int{1, 2, 16} {
		slots := [][]frontier.Pair{randPairs(rng, 40), nil, randPairs(rng, 5)}
		lanes := make([][]uint64, len(slots))
		for s := range slots {
			for i := 0; i < len(slots[s])*w; i++ {
				word := rng.Uint64()
				if i%3 != 0 {
					word &= 1 << (i % 64) // sparse rows, so both mask schemes get picked
				}
				lanes[s] = append(lanes[s], word)
			}
		}
		for _, mode := range modes {
			buf, st := AppendPairsRank(nil, slots, lanes, w, mode)
			if want := int64(45 * (12 + 8*w)); st.RawBytes != want {
				t.Fatalf("w=%d %v: RawBytes %d, want %d", w, mode, st.RawBytes, want)
			}
			if mode == ModeAdaptive && st.Selected[SchemePacked] != 2 {
				t.Fatalf("w=%d: adaptive picked %v, want packed for both non-empty slots", w, st.Selected)
			}
			gotP, gotL := make([][]frontier.Pair, 3), make([][]uint64, 3)
			if err := DecodePairsRankInto(buf, gotP, gotL, w); err != nil {
				t.Fatalf("w=%d %v: %v", w, mode, err)
			}
			for s := range slots {
				if !slices.Equal(gotP[s], slots[s]) || !slices.Equal(gotL[s], lanes[s]) {
					t.Fatalf("w=%d %v slot %d: pairs or lanes differ after the round trip", w, mode, s)
				}
			}
			if err := DecodePairsRankInto(buf, gotP, nil, 0); err == nil {
				t.Fatalf("w=%d %v: decoded as a message without lanes", w, mode)
			}
		}
	}
}

// TestPairsRejectCorruption flips every byte of an encoded block of each
// scheme and expects a decode error or the same pairs (a flip may land in a
// value and still fail the CRC — it must never silently change the pairs).
func TestPairsRejectCorruption(t *testing.T) {
	pairs := []frontier.Pair{{ID: 4, Val: 99}, {ID: 7, Val: 2}, {ID: 7, Val: 3}}
	for _, enc := range pairEncoders[:2] {
		buf, _ := enc.encode(pairs)
		for i := range buf {
			bad := append([]byte(nil), buf...)
			bad[i] ^= 0x40
			got, _, _, err := decodePairsInto(bad, nil, 0)
			if err == nil && !slices.Equal(pairs, got) {
				t.Fatalf("%s: flipping byte %d silently changed the pairs", enc.name, i)
			}
		}
	}
}
