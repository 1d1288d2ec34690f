package wire

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func randSections(rng *rand.Rand, gpusPerRank int) []Section {
	nsec := rng.Intn(5)
	secs := make([]Section, 0, nsec)
	used := map[int]bool{}
	for i := 0; i < nsec; i++ {
		rank := rng.Intn(64)
		if used[rank] {
			continue
		}
		used[rank] = true
		sec := Section{Rank: rank, Slots: make([][]uint32, gpusPerRank)}
		for s := 0; s < gpusPerRank; s++ {
			n := rng.Intn(40)
			ids := make([]uint32, n)
			for j := range ids {
				ids[j] = uint32(rng.Intn(2000))
			}
			sec.Slots[s] = ids
		}
		secs = append(secs, sec)
	}
	return secs
}

// TestSectionsRoundTrip checks both modes round-trip the per-slot id
// multiset of a multi-destination hop message.
func TestSectionsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, mode := range modes {
		for trial := 0; trial < 50; trial++ {
			pgpu := 1 + rng.Intn(3)
			secs := randSections(rng, pgpu)
			buf, st := (*Selector)(nil).AppendSections(nil, secs, 0, mode)
			got, err := decodeSections(buf, pgpu, 64)
			if err != nil {
				t.Fatalf("mode %v trial %d: %v", mode, trial, err)
			}
			if len(got) != len(secs) {
				t.Fatalf("mode %v: %d sections, want %d", mode, len(got), len(secs))
			}
			var wantIDs int64
			for i, sec := range secs {
				if got[i].Rank != sec.Rank {
					t.Fatalf("mode %v: section %d rank %d, want %d", mode, i, got[i].Rank, sec.Rank)
				}
				for s := range sec.Slots {
					wantIDs += int64(len(sec.Slots[s]))
					if !reflect.DeepEqual(sortedOf(got[i].Slots[s]), sortedOf(sec.Slots[s])) {
						t.Fatalf("mode %v: section %d slot %d multiset mismatch", mode, i, s)
					}
					if want := hintOf(got[i].Slots[s]); got[i].Hints[s] != want {
						t.Fatalf("mode %v: section %d slot %d hinted %d, its ids say %d", mode, i, s, got[i].Hints[s], want)
					}
				}
			}
			if st.RawBytes != 4*wantIDs {
				t.Fatalf("mode %v: RawBytes %d, want %d", mode, st.RawBytes, 4*wantIDs)
			}
			if mode == ModeOff && st.EncodedBytes != st.RawBytes {
				t.Fatalf("off mode: EncodedBytes %d should equal RawBytes %d", st.EncodedBytes, st.RawBytes)
			}
			if mode != ModeOff && st.EncodedBytes != int64(len(buf)) {
				t.Fatalf("mode %v: EncodedBytes %d, frame is %d", mode, st.EncodedBytes, len(buf))
			}
		}
	}
}

// TestSectionsEmptyMessage covers the zero-section hop (a synchronization
// message a butterfly hop still sends).
func TestSectionsEmptyMessage(t *testing.T) {
	buf, st := (*Selector)(nil).AppendSections(nil, nil, 0, ModeAdaptive)
	if st.RawBytes != 0 {
		t.Fatalf("empty message RawBytes = %d", st.RawBytes)
	}
	got, err := decodeSections(buf, 2, 8)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty round trip: %v, %d sections", err, len(got))
	}
}

// TestSectionsRejectCorruption checks truncation and trailing garbage are
// detected, never silently decoded.
func TestSectionsRejectCorruption(t *testing.T) {
	secs := []Section{{Rank: 3, Slots: [][]uint32{{1, 2, 3}, {9}}}}
	for _, mode := range modes {
		buf, _ := (*Selector)(nil).AppendSections(nil, secs, 0, mode)
		if _, err := decodeSections(append(append([]byte(nil), buf...), 0xff), 2, 8); err == nil {
			t.Fatalf("mode %v: trailing byte accepted", mode)
		}
		if _, err := decodeSections(buf[:len(buf)-2], 2, 8); err == nil {
			t.Fatalf("mode %v: truncation accepted", mode)
		}
		if len(buf) > 1 {
			// Corrupt the section count.
			bad := append([]byte(nil), buf...)
			bad[0] = 0xde
			if _, err := decodeSections(bad, 2, 8); err == nil {
				t.Fatalf("mode %v: corrupt section count accepted", mode)
			}
		}
		// A destination rank outside the world (the framing varints sit
		// outside any CRC) must be an error, not a caller panic.
		if _, err := decodeSections(buf, 2, 3); err == nil {
			t.Fatalf("mode %v: out-of-range section rank accepted", mode)
		}
	}
}

// TestAppendSortedMatchesUnsorted: encoding already-sorted input with the
// presorted hint must produce byte-identical output to the hintless path, a
// Selector's AppendRank with a sorted row included.
func TestAppendSortedMatchesUnsorted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sel := new(Selector)
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(60)
		ids := make([]uint32, n)
		for i := range ids {
			ids[i] = uint32(rng.Intn(500))
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		plain, s1 := appendIDs(nil, ids, ModeAdaptive, HintNone, nil, 0)
		hinted, s2 := appendIDs(nil, ids, ModeAdaptive, HintSorted, nil, 0)
		if s1 != s2 || !reflect.DeepEqual(plain, hinted) {
			t.Fatalf("presorted hint changed the encoding (%v vs %v)", s1, s2)
		}
		if msg, _ := sel.AppendRank(nil, 0, [][]uint32{ids}, []bool{true}, ModeAdaptive); !reflect.DeepEqual(msg, plain) {
			t.Fatalf("AppendRank's sorted row changed the encoding")
		}
	}
}
