package wire

import (
	"math/rand"
	"slices"
	"sort"
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

func canonPairs(pairs []frontier.Pair) []frontier.Pair {
	out := append([]frontier.Pair(nil), pairs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID != out[j].ID {
			return out[i].ID < out[j].ID
		}
		return out[i].Val < out[j].Val
	})
	return out
}

func samePairMultiset(a, b []frontier.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	ca, cb := canonPairs(a), canonPairs(b)
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}

// TestPairsRoundTrip checks every pairs mode round-trips the multiset.
func TestPairsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, mode := range []Mode{ModeAdaptive, ModeRaw, ModeDelta, ModeBitmap} {
		for trial := 0; trial < 80; trial++ {
			pairs := randPairs(rng, rng.Intn(50))
			buf, scheme := AppendPairs(nil, pairs, mode)
			got, n, gotScheme, err := DecodePairs(buf)
			if err != nil {
				t.Fatalf("mode %v: %v", mode, err)
			}
			if n != len(buf) || gotScheme != scheme {
				t.Fatalf("mode %v: consumed %d of %d, scheme %v vs %v", mode, n, len(buf), gotScheme, scheme)
			}
			if !samePairMultiset(pairs, got) {
				t.Fatalf("mode %v: pair multiset mismatch", mode)
			}
			if mode == ModeBitmap && scheme == SchemeBitmap {
				t.Fatal("pairs codec has no bitmap scheme")
			}
		}
	}
}

// TestPairsAdaptivePicksSmaller: clustered low values must pick delta and
// beat the 12-byte fixed width; scattered ids with huge values must not.
func TestPairsAdaptivePicksSmaller(t *testing.T) {
	clustered := make([]frontier.Pair, 200)
	for i := range clustered {
		clustered[i] = frontier.Pair{ID: uint32(1000 + i), Val: uint64(i % 7)}
	}
	buf, scheme := AppendPairs(nil, clustered, ModeAdaptive)
	if scheme != SchemeDelta {
		t.Fatalf("clustered pairs picked %v, want delta", scheme)
	}
	if len(buf) >= 12*len(clustered) {
		t.Fatalf("delta block %d B not below fixed-width %d B", len(buf), 12*len(clustered))
	}

	rng := rand.New(rand.NewSource(9))
	scattered := make([]frontier.Pair, 50)
	for i := range scattered {
		scattered[i] = frontier.Pair{ID: rng.Uint32(), Val: rng.Uint64() | 1<<63}
	}
	_, scheme = AppendPairs(nil, scattered, ModeAdaptive)
	if scheme != SchemeRaw {
		t.Fatalf("scattered huge-value pairs picked %v, want raw", scheme)
	}
}

// TestPairsRankRoundTrip covers the whole-message path with stats.
func TestPairsRankRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	slots := [][]frontier.Pair{randPairs(rng, 20), nil, randPairs(rng, 3)}
	buf, st := AppendPairsRank(nil, slots, nil, 0, ModeAdaptive, false)
	if st.RawBytes != 12*23 {
		t.Fatalf("RawBytes %d, want %d", st.RawBytes, 12*23)
	}
	if st.EncodedBytes != int64(len(buf)) {
		t.Fatalf("EncodedBytes %d, frame %d", st.EncodedBytes, len(buf))
	}
	got := make([][]frontier.Pair, 3)
	if err := DecodePairsRankInto(buf, got, nil, 0); err != nil {
		t.Fatal(err)
	}
	for s := range slots {
		if !samePairMultiset(slots[s], got[s]) {
			t.Fatalf("slot %d multiset mismatch", s)
		}
	}
	if err := DecodePairsRankInto(append(buf, 1), got, nil, 0); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if err := DecodePairsRankInto(buf[:len(buf)-1], got, nil, 0); err == nil {
		t.Fatal("truncation accepted")
	}
}

// TestPairsRankCarriesLanes: with w > 0 every pair travels with its lane set,
// in the caller's order, under every mode; and a sorting codec refuses pairs it
// would have to reorder away from their sets.
func TestPairsRankCarriesLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, w := range []int{1, 2, 16} {
		slots := [][]frontier.Pair{randPairs(rng, 40), nil, randPairs(rng, 5)}
		lanes := make([][]uint64, len(slots))
		for s := range slots {
			frontier.SortPairs(slots[s], new([]frontier.Pair))
			for i := 0; i < len(slots[s])*w; i++ {
				word := rng.Uint64()
				if i%3 != 0 {
					word &= 1 << (i % 64) // sparse rows, so both mask schemes get picked
				}
				lanes[s] = append(lanes[s], word)
			}
		}
		for _, mode := range []Mode{ModeOff, ModeRaw, ModeDelta, ModeAdaptive} {
			buf, st := AppendPairsRank(nil, slots, lanes, w, mode, true)
			if want := int64(45 * (12 + 8*w)); st.RawBytes != want {
				t.Fatalf("w=%d %v: RawBytes %d, want %d", w, mode, st.RawBytes, want)
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
	defer func() {
		if recover() == nil {
			t.Fatal("adaptive mode accepted unsorted lane-carrying pairs")
		}
	}()
	AppendPairsRank(nil, [][]frontier.Pair{{{ID: 2}, {ID: 1}}}, [][]uint64{{1, 2}}, 1, ModeAdaptive, false)
}

// TestPairsRejectCorruption flips every byte of an encoded block and expects
// a decode error or an identical multiset (a flip may land in a value and
// still fail the CRC — it must never silently change the pairs).
func TestPairsRejectCorruption(t *testing.T) {
	pairs := []frontier.Pair{{ID: 4, Val: 99}, {ID: 7, Val: 2}, {ID: 7, Val: 3}}
	buf, _ := AppendPairs(nil, pairs, ModeDelta)
	for i := range buf {
		bad := append([]byte(nil), buf...)
		bad[i] ^= 0x40
		got, _, _, err := DecodePairs(bad)
		if err == nil && !samePairMultiset(pairs, got) {
			t.Fatalf("flipping byte %d silently changed the pairs", i)
		}
	}
}
