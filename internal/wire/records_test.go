package wire

import (
	"bytes"
	"errors"
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
		want   MaskScheme
	}{
		{"sparse-adaptive", 40, 4, true, ModeAdaptive, MaskSparse},
		{"dense-adaptive", 40, 1, false, ModeAdaptive, MaskRaw},
		{"forced-raw", 40, 2, true, ModeRaw, MaskRaw},
		{"empty", 0, 3, true, ModeAdaptive, MaskRaw},
		{"delta-ids", 100, 8, true, ModeDelta, MaskSparse},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ids, masks := recordFixture(tc.n, tc.w, tc.sparse)
			buf, _, ms := AppendRecords(nil, ids, masks, tc.w, tc.mode)
			if ms != tc.want {
				t.Fatalf("mask scheme = %v, want %v", ms, tc.want)
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

func TestRecordCorruption(t *testing.T) {
	ids, masks := recordFixture(30, 2, true)
	buf, _, _ := AppendRecords(nil, ids, masks, 2, ModeAdaptive)
	// Flip one byte anywhere: the decode must error, never return wrong data.
	for i := range buf {
		bad := bytes.Clone(buf)
		bad[i] ^= 0x40
		gotIDs, gotMasks, _, err := DecodeRecordsAppend(bad, 2, nil, nil)
		if err != nil {
			continue
		}
		if len(gotIDs) != len(ids) {
			t.Fatalf("byte %d: silent length change", i)
		}
		same := true
		for j := range ids {
			if gotIDs[j] != ids[j] {
				same = false
			}
		}
		for j := range masks {
			if gotMasks[j] != masks[j] {
				same = false
			}
		}
		if !same {
			t.Fatalf("byte %d: corruption decoded to different records without error", i)
		}
	}
	// Truncations at every length.
	for n := 0; n < len(buf); n++ {
		if _, _, _, err := DecodeRecordsAppend(buf[:n], 2, nil, nil); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
}

// TestRecordRankRoundTrip: a rank message of records is each slot's record
// block back to back — on a fresh selector byte for byte what AppendRecords
// writes per slot — and the Selector remembers both halves of a block: a
// stable frontier hits the memory for its id block and its mask section alike.
func TestRecordRankRoundTrip(t *testing.T) {
	const w = 3
	sel := NewSelector()
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
		if want := int64(2 * min(iter, 1)); st.MemoHits != want {
			t.Fatalf("iter %d: memo hits = %d, want %d", iter, st.MemoHits, want)
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

	// Reset forgets the memory: the next encode probes afresh (no hits) but
	// produces the identical bytes.
	sel.Reset()
	if buf, st := sel.AppendRankSection(nil, sec, w, ModeAdaptive); st.MemoHits != 0 || !bytes.Equal(buf, blocks) {
		t.Fatalf("post-reset encode: %d memo hits, identical bytes %v", st.MemoHits, bytes.Equal(buf, blocks))
	}

	// Records are sets: a slot whose ids repeat or descend does not decode.
	for _, bad := range [][]uint32{{5, 5}, {9, 2}} {
		buf, _ := (*Selector)(nil).AppendRankSection(nil, Section{Slots: [][]uint32{bad}, Masks: [][]uint64{make([]uint64, 2*w)}}, w, ModeRaw)
		if err := DecodeRankLanesInto(buf, make([][]uint32, 1), make([][]uint64, 1), w); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("record slot %v decoded: %v", bad, err)
		}
		msg, _ := (*Selector)(nil).EncodeSections([]Section{{Slots: [][]uint32{bad}, Masks: [][]uint64{make([]uint64, 2*w)}}}, w, ModeRaw)
		if _, err := DecodeSectionsScratch(msg, 1, w, 1, nil, nil, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("record section %v decoded: %v", bad, err)
		}
	}
}
