package wire

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"
)

func recordFixture(n, w int, sparse bool) ([]uint32, []uint64) {
	ids := make([]uint32, n)
	masks := make([]uint64, n*w)
	for i := 0; i < n; i++ {
		ids[i] = uint32(97*i + 5)
		if sparse {
			masks[i*w+(i%w)] = 1 << uint(i%64)
		} else {
			for j := 0; j < w; j++ {
				masks[i*w+j] = ^uint64(0) >> uint(i%7)
			}
		}
	}
	return ids, masks
}

func TestRecordRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n, w   int
		sparse bool
		mode   Mode
		ids    Scheme
		want   MaskScheme
	}{
		{"sparse-adaptive", 40, 4, true, ModeAdaptive, SchemeDelta, MaskSparse},
		{"dense-adaptive", 40, 1, false, ModeAdaptive, SchemeDelta, MaskRaw},
		// ModeOff forces raw ids and raw masks, sparse or not.
		{"forced-raw", 40, 2, true, ModeOff, SchemeRaw, MaskRaw},
		{"empty", 0, 3, true, ModeAdaptive, SchemeRaw, MaskRaw},
		{"delta-ids", 100, 8, true, ModeAdaptive, SchemeDelta, MaskSparse},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ids, masks := recordFixture(tc.n, tc.w, tc.sparse)
			buf, idScheme, ms := AppendRecords(nil, ids, masks, tc.w, tc.mode)
			if idScheme != tc.ids || ms != tc.want {
				t.Fatalf("schemes = %v/%v, want %v/%v", idScheme, ms, tc.ids, tc.want)
			}
			gotIDs, gotMasks, consumed, err := DecodeRecordsAppend(buf, tc.w, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if consumed != len(buf) {
				t.Fatalf("consumed %d of %d bytes", consumed, len(buf))
			}
			if len(gotIDs) != len(ids) {
				t.Fatalf("decoded %d ids, want %d", len(gotIDs), len(ids))
			}
			for i := range ids {
				if gotIDs[i] != ids[i] {
					t.Fatalf("id[%d] = %d, want %d", i, gotIDs[i], ids[i])
				}
			}
			for i := range masks {
				if gotMasks[i] != masks[i] {
					t.Fatalf("mask word %d = %x, want %x", i, gotMasks[i], masks[i])
				}
			}
		})
	}
}

// TestRecordCorruption flips every bit of record blocks — delta ids with a
// sparse mask section, raw ids with a raw one — and truncates them at every
// length: each is an ErrCorrupt-typed error, never records.
func TestRecordCorruption(t *testing.T) {
	ids, masks := recordFixture(30, 2, true)
	for _, mode := range modes {
		buf, idScheme, ms := AppendRecords(nil, ids, masks, 2, mode)
		for bit := 0; bit < 8*len(buf); bit++ {
			bad := bytes.Clone(buf)
			bad[bit/8] ^= 1 << (bit % 8)
			if _, _, _, err := DecodeRecordsAppend(bad, 2, nil, nil); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%v/%v: flipping bit %d of %d: err %v", idScheme, ms, bit, 8*len(buf), err)
			}
		}
		for n := 0; n < len(buf); n++ {
			if _, _, _, err := DecodeRecordsAppend(buf[:n], 2, nil, nil); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%v/%v: truncation to %d bytes: err %v", idScheme, ms, n, err)
			}
		}
	}
}

// TestRecordRankRoundTrip: a rank message of records is each slot's record
// block back to back — byte for byte what AppendRecords writes per slot, on
// every encode through the same selector.
func TestRecordRankRoundTrip(t *testing.T) {
	const w = 3
	sel := new(Selector)
	sec := Section{Rank: 1, Slots: make([][]uint32, 2), Masks: make([][]uint64, 2), Hints: []Hint{HintSet, HintSet}}
	sec.Slots[0], sec.Masks[0] = recordFixture(50, w, true)
	sec.Slots[1], sec.Masks[1] = recordFixture(7, w, false)
	var blocks []byte
	for s := range sec.Slots {
		blocks, _, _ = AppendRecords(blocks, sec.Slots[s], sec.Masks[s], w, ModeAdaptive)
	}

	for iter := 0; iter < 3; iter++ {
		buf, st := sel.AppendRankSection(nil, sec, w, ModeAdaptive)
		if st.RawBytes != (4+8*w)*(50+7) || st.EncodedBytes != int64(len(buf)) {
			t.Fatalf("iter %d: stats %+v for %d bytes", iter, st, len(buf))
		}
		if !bytes.Equal(buf, blocks) {
			t.Fatalf("iter %d: the rank message is not the slots' record blocks back to back", iter)
		}
		ids, masks := make([][]uint32, 2), make([][]uint64, 2)
		if err := DecodeRankLanesInto(buf, ids, masks, w); err != nil {
			t.Fatal(err)
		}
		for s := range sec.Slots {
			if !slices.Equal(ids[s], sec.Slots[s]) || !slices.Equal(masks[s], sec.Masks[s]) {
				t.Fatalf("slot %d does not round-trip", s)
			}
		}
	}

	// Records are sets: a slot whose ids repeat or descend does not decode.
	for _, bad := range [][]uint32{{5, 5}, {9, 2}} {
		buf, _ := (*Selector)(nil).AppendRankSection(nil, Section{Slots: [][]uint32{bad}, Masks: [][]uint64{make([]uint64, 2*w)}}, w, ModeOff)
		if err := DecodeRankLanesInto(buf, make([][]uint32, 1), make([][]uint64, 1), w); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("record slot %v decoded: %v", bad, err)
		}
		msg, _ := (*Selector)(nil).AppendSections(nil, []Section{{Slots: [][]uint32{bad}, Masks: [][]uint64{make([]uint64, 2*w)}}}, w, ModeOff)
		if _, err := DecodeSectionsScratch(msg, 1, w, 1, nil, nil, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("record section %v decoded: %v", bad, err)
		}
	}
}

// TestMaskPricingBounded: counting the sparse mask payload only up to the raw
// size picks the scheme the full count picks, on dense, sparse, empty and
// wide lane sets.
func TestMaskPricingBounded(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n, w   int
		sparse bool
		want   MaskScheme
	}{
		{"dense", 40, 1, false, MaskRaw},
		{"sparse", 40, 1, true, MaskSparse},
		{"empty", 0, 3, true, MaskRaw},
		{"wide-dense/w=2", 40, 2, false, MaskRaw},
		{"wide-sparse/w=2", 40, 2, true, MaskSparse},
		{"wide-dense/w=17", 40, 17, false, MaskRaw},
		{"wide-sparse/w=17", 40, 17, true, MaskSparse},
	} {
		_, masks := recordFixture(tc.n, tc.w, tc.sparse)
		raw := 8 * tc.n * tc.w
		full := maskSparsePayloadLen(masks, tc.n, tc.w, math.MaxInt)
		bounded := maskSparsePayloadLen(masks, tc.n, tc.w, raw)
		if (bounded < raw) != (full < raw) || (full < raw && bounded != full) {
			t.Fatalf("%s: bounded count %d, full count %d, raw %d", tc.name, bounded, full, raw)
		}
		got := chooseMaskScheme(masks, tc.n, tc.w, ModeAdaptive)
		if got != tc.want {
			t.Fatalf("%s: %v, want %v (full sparse count %d, raw %d)", tc.name, got, tc.want, full, raw)
		}
		// Each writer's section is its size function's payload plus the
		// scheme byte and checksum; the adaptive section is the smaller.
		rawSec := appendMaskSection(nil, masks, tc.n, tc.w, MaskRaw, 0)
		sparseSec := appendMaskSection(nil, masks, tc.n, tc.w, MaskSparse, 0)
		if len(rawSec) != 1+raw+crcLen || len(sparseSec) != 1+full+crcLen {
			t.Fatalf("%s: sections of %d (raw) and %d (sparse) bytes, size functions say %d and %d", tc.name, len(rawSec), len(sparseSec), raw, full)
		}
		if adaptive := appendMaskSection(nil, masks, tc.n, tc.w, got, 0); len(adaptive) != min(len(rawSec), len(sparseSec)) {
			t.Fatalf("%s: adaptive section of %d bytes, raw %d, sparse %d", tc.name, len(adaptive), len(rawSec), len(sparseSec))
		}
	}
}
