package wire

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"gcbfs/internal/frontier"
)

// TestModeOffMessagesAreChecksummed: the default fixed-width packing is raw
// blocks under a charging rule, not a second format. For one ModeOff message
// of each kind — rank slots, butterfly sections, records as a rank message
// and as butterfly sections, pairs, pairs with lane sets — the
// accounting is the paper's (fixed-width payload only, no scheme tallied),
// the decode returns the input in input order, and every single-bit flip and
// every truncation is an ErrCorrupt-typed error, never ids.
func TestModeOffMessagesAreChecksummed(t *testing.T) {
	// Unsorted, with a duplicate: ModeOff must keep order and multiplicity.
	slots := [][]uint32{{40, 3, 9, 9, 1 << 31}, nil, {7}}
	pairs := [][]frontier.Pair{{{ID: 9, Val: 1 << 40}, {ID: 2, Val: 0}, {ID: 9, Val: 5}}, nil}
	recordIDs := [][]uint32{{3, 9, 300}, {12}}
	sel := new(Selector)

	type message struct {
		name   string
		buf    []byte
		st     Stats
		raw    int64                                // the fixed-width payload the paper charges
		decode func(buf []byte) error               // must fail on anything but buf itself
		same   func(t *testing.T, buf []byte) error // decodes and compares with the input
	}
	var msgs []message

	buf, st := sel.AppendRank(nil, 1, slots, nil, ModeOff)
	msgs = append(msgs, message{
		name: "rank", buf: buf, st: st, raw: 4 * 6,
		decode: func(b []byte) error { return DecodeRankInto(b, make([][]uint32, len(slots))) },
		same: func(t *testing.T, buf []byte) error {
			got := make([][]uint32, len(slots))
			err := DecodeRankInto(buf, got)
			for s := range slots {
				if err == nil && !slices.Equal(got[s], slots[s]) {
					t.Fatalf("rank slot %d: got %v, want %v", s, got[s], slots[s])
				}
			}
			return err
		},
	})

	secs := []Section{{Rank: 2, Slots: slots}, {Rank: 5, Slots: [][]uint32{nil, {8, 1}, nil}}}
	buf, st = sel.AppendSections(nil, secs, 0, ModeOff)
	msgs = append(msgs, message{
		name: "sections", buf: buf, st: st, raw: 4 * 8,
		decode: func(b []byte) error {
			_, err := decodeSections(b, len(slots), 8)
			return err
		},
		same: func(t *testing.T, buf []byte) error {
			got, err := decodeSections(buf, len(slots), 8)
			for i := range secs {
				if err != nil {
					break
				}
				if got[i].Rank != secs[i].Rank {
					t.Fatalf("section %d rank %d, want %d", i, got[i].Rank, secs[i].Rank)
				}
				for s := range secs[i].Slots {
					if !slices.Equal(got[i].Slots[s], secs[i].Slots[s]) {
						t.Fatalf("section %d slot %d: got %v, want %v", i, s, got[i].Slots[s], secs[i].Slots[s])
					}
				}
			}
			return err
		},
	})

	for _, w := range []int{1, 3} {
		masks := make([][]uint64, len(recordIDs))
		for s, ids := range recordIDs {
			for i := 0; i < len(ids)*w; i++ {
				masks[s] = append(masks[s], uint64(s+1)<<(7*i))
			}
		}
		same := func(t *testing.T, got []Section, err error, ranks ...int) error {
			for i, rank := range ranks {
				if err != nil {
					break
				}
				if got[i].Rank != rank {
					t.Fatalf("records w=%d section %d: rank %d, want %d", w, i, got[i].Rank, rank)
				}
				for s := range recordIDs {
					if !slices.Equal(got[i].Slots[s], recordIDs[s]) || !slices.Equal(got[i].Masks[s], masks[s]) {
						t.Fatalf("records w=%d section %d slot %d: got %v %v, want %v %v", w, i, s, got[i].Slots[s], got[i].Masks[s], recordIDs[s], masks[s])
					}
				}
			}
			return err
		}
		rank := Section{Rank: 1, Slots: recordIDs, Masks: masks}
		buf, st := sel.AppendRankSection(nil, rank, w, ModeOff)
		decode := func(b []byte) ([]Section, error) {
			got := Section{Slots: make([][]uint32, len(recordIDs)), Masks: make([][]uint64, len(recordIDs))}
			return []Section{got}, DecodeRankLanesInto(b, got.Slots, got.Masks, w)
		}
		msgs = append(msgs, message{
			name: fmt.Sprintf("records/w=%d", w), buf: buf, st: st, raw: 4 * int64(4+8*w),
			decode: func(b []byte) error { _, err := decode(b); return err },
			same: func(t *testing.T, buf []byte) error {
				got, err := decode(buf)
				return same(t, got, err, 0)
			},
		})

		// The same records as butterfly sections: every checksum — the mask
		// sections' too — is seeded with the section's destination rank, so
		// flipping the rank varint re-routes nothing silently.
		secs := []Section{{Rank: 2, Slots: recordIDs, Masks: masks}, {Rank: 5, Slots: recordIDs, Masks: masks}}
		buf, st = sel.AppendSections(nil, secs, w, ModeOff)
		decodeSecs := func(b []byte) ([]Section, error) {
			return DecodeSectionsScratch(b, len(recordIDs), w, 8, nil, nil, nil)
		}
		msgs = append(msgs, message{
			name: fmt.Sprintf("sections/w=%d", w), buf: buf, st: st, raw: 8 * int64(4+8*w),
			decode: func(b []byte) error { _, err := decodeSecs(b); return err },
			same: func(t *testing.T, buf []byte) error {
				got, err := decodeSecs(buf)
				return same(t, got, err, 2, 5)
			},
		})
		mask := appendMaskSection(nil, masks[0], len(recordIDs[0]), w, MaskRaw, sectionSeed(2))
		if _, _, err := decodeMaskSection(mask, len(recordIDs[0]), w, nil, sectionSeed(2)); err != nil {
			t.Fatalf("w=%d: mask section rejected under its own rank: %v", w, err)
		}
		if _, _, err := decodeMaskSection(mask, len(recordIDs[0]), w, nil, sectionSeed(5)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("w=%d: a mask section for rank 2 verified under rank 5: %v", w, err)
		}
	}

	buf, st = AppendPairsRank(nil, pairs, nil, 0, ModeOff)
	msgs = append(msgs, message{
		name: "pairs", buf: buf, st: st, raw: 12 * 3,
		decode: func(b []byte) error { return DecodePairsRankInto(b, make([][]frontier.Pair, len(pairs)), nil, 0) },
		same: func(t *testing.T, buf []byte) error {
			got := make([][]frontier.Pair, len(pairs))
			err := DecodePairsRankInto(buf, got, nil, 0)
			for s := range pairs {
				if err == nil && !slices.Equal(got[s], pairs[s]) {
					t.Fatalf("pairs slot %d: got %v, want %v", s, got[s], pairs[s])
				}
			}
			return err
		},
	})

	// The sweep's replay: every pair carries a w-word lane set, a mask section
	// behind each pairs block.
	for _, w := range []int{1, 3} {
		lanes := make([][]uint64, len(pairs))
		for s, prs := range pairs {
			for i := 0; i < len(prs)*w; i++ {
				lanes[s] = append(lanes[s], uint64(s+5)<<(11*i))
			}
		}
		buf, st := AppendPairsRank(nil, pairs, lanes, w, ModeOff)
		decode := func(b []byte) ([][]frontier.Pair, [][]uint64, error) {
			prs, ls := make([][]frontier.Pair, len(pairs)), make([][]uint64, len(pairs))
			return prs, ls, DecodePairsRankInto(b, prs, ls, w)
		}
		msgs = append(msgs, message{
			name: fmt.Sprintf("pairs/lanes=%d", w), buf: buf, st: st, raw: 3 * int64(12+8*w),
			decode: func(b []byte) error { _, _, err := decode(b); return err },
			same: func(t *testing.T, buf []byte) error {
				prs, ls, err := decode(buf)
				for s := range pairs {
					if err == nil && (!slices.Equal(prs[s], pairs[s]) || !slices.Equal(ls[s], lanes[s])) {
						t.Fatalf("pairs w=%d slot %d: got %v %v, want %v %v", w, s, prs[s], ls[s], pairs[s], lanes[s])
					}
				}
				return err
			},
		})
	}

	for _, m := range msgs {
		t.Run(m.name, func(t *testing.T) {
			if want := (Stats{RawBytes: m.raw, EncodedBytes: m.raw}); m.st != want {
				t.Fatalf("stats %+v, want the paper's accounting %+v", m.st, want)
			}
			if err := m.same(t, m.buf); err != nil {
				t.Fatalf("intact message rejected: %v", err)
			}
			for i := range m.buf {
				for bit := 0; bit < 8; bit++ {
					bad := append([]byte(nil), m.buf...)
					bad[i] ^= 1 << bit
					if err := m.decode(bad); !errors.Is(err, ErrCorrupt) {
						t.Fatalf("flipping byte %d bit %d of %d bytes: err = %v, want ErrCorrupt", i, bit, len(m.buf), err)
					}
				}
			}
			for n := 0; n < len(m.buf); n++ {
				if err := m.decode(m.buf[:n]); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("truncating to %d of %d bytes: err = %v, want ErrCorrupt", n, len(m.buf), err)
				}
			}
		})
	}
}
