package wire

import (
	"fmt"
	"math/rand"
	"testing"

	"gcbfs/internal/frontier"
)

// benchShapes are frontier payloads representative of the exchange: a dense
// slice of a destination's id space (mid-BFS peak), a clustered sorted
// range (delta's home turf) and a scattered unordered set (raw's).
func benchShapes() map[string][]uint32 {
	rng := rand.New(rand.NewSource(1))
	dense := make([]uint32, 0, 48<<10)
	for v := uint32(0); v < 64<<10; v++ {
		if rng.Intn(4) != 0 {
			dense = append(dense, v)
		}
	}
	clustered := make([]uint32, 16<<10)
	cur := uint32(0)
	for i := range clustered {
		cur += uint32(1 + rng.Intn(8))
		clustered[i] = cur
	}
	scattered := make([]uint32, 16<<10)
	for i := range scattered {
		scattered[i] = rng.Uint32()
	}
	return map[string][]uint32{
		"dense": dense, "clustered": clustered, "scattered": scattered,
	}
}

// BenchmarkEncode measures every codec scheme (plus adaptive selection) on
// each payload shape, reporting output bytes per input id.
func BenchmarkEncode(b *testing.B) {
	for name, ids := range benchShapes() {
		for _, mode := range []Mode{ModeAdaptive, ModeRaw, ModeDelta, ModeBitmap} {
			b.Run(fmt.Sprintf("%s/%v", name, mode), func(b *testing.B) {
				b.SetBytes(4 * int64(len(ids)))
				var buf []byte
				for i := 0; i < b.N; i++ {
					buf, _ = Append(buf[:0], ids, mode)
				}
				b.ReportMetric(float64(len(buf))/float64(len(ids)), "bytes/id")
			})
		}
	}
}

// BenchmarkDecode measures decoding each scheme's output per payload shape.
func BenchmarkDecode(b *testing.B) {
	for name, ids := range benchShapes() {
		for _, mode := range []Mode{ModeRaw, ModeDelta, ModeBitmap} {
			buf, scheme := Append(nil, ids, mode)
			b.Run(fmt.Sprintf("%s/%v", name, scheme), func(b *testing.B) {
				b.SetBytes(4 * int64(len(ids)))
				for i := 0; i < b.N; i++ {
					if _, _, _, err := Decode(buf); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEncodeRank measures the whole-message path used by the engine's
// exchange (four slots of mixed shape).
func BenchmarkEncodeRank(b *testing.B) {
	shapes := benchShapes()
	slots := [][]uint32{shapes["dense"], shapes["clustered"], shapes["scattered"], nil}
	for _, mode := range []Mode{ModeAdaptive, ModeRaw} {
		b.Run(mode.String(), func(b *testing.B) {
			var raw int64
			for _, s := range slots {
				raw += 4 * int64(len(s))
			}
			b.SetBytes(raw)
			for i := 0; i < b.N; i++ {
				buf, _ := EncodeRank(slots, mode)
				if _, err := DecodeRank(buf, len(slots)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkButterflyRelay is one butterfly hop as a relaying rank runs it:
// decode the partner's message, union every slot with the set the rank holds
// for the same destination, re-encode the unions for the next hop. Shaped like
// rmat16-exchange's fat supersteps: 16 destination ranks × 2 slots, each a set
// over a 1 024-id local space, a quarter to a half of it present, held and
// received sets drawn independently so about a third of the ids meet their
// double. ids/s counts the ids read (decoded plus held); out/in what the
// union kept of them.
func BenchmarkButterflyRelay(b *testing.B) {
	const ranks, pgpu, space = 16, 2, 1024
	rng := rand.New(rand.NewSource(24))
	draw := func() []Section {
		secs := make([]Section, ranks)
		for r := range secs {
			secs[r] = Section{Rank: r, Slots: make([][]uint32, pgpu), Hints: make([]Hint, pgpu)}
			for s := range secs[r].Slots {
				keep := 2 + rng.Intn(3) // one id in 2 to 4
				for v := uint32(0); v < space; v++ {
					if rng.Intn(keep) == 0 {
						secs[r].Slots[s] = append(secs[r].Slots[s], v)
					}
				}
				secs[r].Hints[s] = HintSet
			}
		}
		return secs
	}
	held := draw()
	for _, mode := range []Mode{ModeAdaptive, ModeDelta} {
		in, st := NewSelector().EncodeSections(draw(), 0, mode)
		read := st.RawBytes / 4
		for _, sec := range held {
			for _, ids := range sec.Slots {
				read += int64(len(ids))
			}
		}
		b.Run(mode.String(), func(b *testing.B) {
			var arena frontier.Arena
			var scratch SectionScratch
			sel := NewSelectorSized(ranks * pgpu)
			out := make([]Section, ranks)
			for r := range out {
				out[r] = Section{Rank: r, Slots: make([][]uint32, pgpu), Hints: make([]Hint, pgpu)}
			}
			var msg []byte
			var kept int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arena.Reset()
				scratch.Reset()
				secs, err := DecodeSectionsScratch(in, pgpu, 0, ranks, &arena, nil, &scratch)
				if err != nil {
					b.Fatal(err)
				}
				for _, sec := range secs {
					for s, ids := range sec.Slots {
						if sec.Hints[s] != HintSet {
							b.Fatal("decoded slot is not a set")
						}
						out[sec.Rank].Slots[s] = frontier.MergeSortedArena(&arena, [][]uint32{held[sec.Rank].Slots[s], ids})
						out[sec.Rank].Hints[s] = HintSet
					}
				}
				var st Stats
				msg, st = sel.AppendSections(msg[:0], out, 0, mode)
				kept = st.RawBytes / 4
			}
			b.ReportMetric(float64(read)*float64(b.N)/b.Elapsed().Seconds(), "ids/s")
			b.ReportMetric(float64(kept)/float64(read), "out/in")
			b.ReportMetric(float64(len(msg))/float64(kept), "bytes/id")
		})
	}
}
