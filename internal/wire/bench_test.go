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

// BenchmarkEncode measures every scheme's writer (delta and bitmap on the
// presorted ids, bitmap where the shape is a set) and the adaptive mode,
// selection and sort included, on each payload shape, reporting output bytes
// per input id.
func BenchmarkEncode(b *testing.B) {
	for name, ids := range benchShapes() {
		type writer struct {
			name  string
			write func(dst []byte) []byte
		}
		sorted := sortedOf(ids)
		writers := []writer{
			{"raw", func(dst []byte) []byte { return appendRaw(dst, ids, 0) }},
			{"delta", func(dst []byte) []byte { return appendDelta(dst, sorted, 0) }},
			{"adaptive", func(dst []byte) []byte { dst, _ = appendIDs(dst, ids, ModeAdaptive, HintNone, nil, 0); return dst }},
		}
		if bitmapFits(ids) {
			writers = append(writers, writer{"bitmap", func(dst []byte) []byte { return appendBitmap(dst, sorted, 0) }})
		}
		for _, w := range writers {
			b.Run(fmt.Sprintf("%s/%s", name, w.name), func(b *testing.B) {
				b.SetBytes(4 * int64(len(ids)))
				var buf []byte
				for i := 0; i < b.N; i++ {
					buf = w.write(buf[:0])
				}
				b.ReportMetric(float64(len(buf))/float64(len(ids)), "bytes/id")
			})
		}
	}
}

// BenchmarkDecode measures decoding each scheme's block per payload shape.
func BenchmarkDecode(b *testing.B) {
	for name, ids := range benchShapes() {
		for _, e := range encodings(ids) {
			if e.by == "adaptive" {
				continue
			}
			b.Run(fmt.Sprintf("%s/%v", name, e.scheme), func(b *testing.B) {
				b.SetBytes(4 * int64(len(ids)))
				for i := 0; i < b.N; i++ {
					if _, _, _, err := decodeOne(e.buf); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEncodeRank measures the whole-message path used by the engine's
// exchange (four slots of mixed shape), encode and decode.
func BenchmarkEncodeRank(b *testing.B) {
	shapes := benchShapes()
	slots := [][]uint32{shapes["dense"], shapes["clustered"], shapes["scattered"], nil}
	for _, mode := range modes {
		b.Run(mode.String(), func(b *testing.B) {
			var raw int64
			for _, s := range slots {
				raw += 4 * int64(len(s))
			}
			b.SetBytes(raw)
			sel := new(Selector)
			var buf []byte
			into := make([][]uint32, len(slots))
			for i := 0; i < b.N; i++ {
				buf, _ = sel.AppendRank(buf[:0], 0, slots, nil, mode)
				for s := range into {
					into[s] = into[s][:0]
				}
				if err := DecodeRankInto(buf, into); err != nil {
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
	for _, mode := range []Mode{ModeAdaptive, ModeOff} {
		in, st := new(Selector).AppendSections(nil, draw(), 0, mode)
		read := st.RawBytes / 4
		for _, sec := range held {
			for _, ids := range sec.Slots {
				read += int64(len(ids))
			}
		}
		b.Run(mode.String(), func(b *testing.B) {
			var arena frontier.Arena
			var scratch SectionScratch
			sel := new(Selector)
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

// replayBlocks returns the blocks of a tree replay's pair round as one RMAT 16
// query on 32 ranks sends them: about 50 pairs a block, a 10-bit local slot as
// the ID and parent<<32 | level as the value, a parent among 2^16 ids at
// levels 1 to 6, in the order the replay bins them.
func replayBlocks() (blocks [][]frontier.Pair, pairs int) {
	rng := rand.New(rand.NewSource(39))
	blocks = make([][]frontier.Pair, 2000)
	for b := range blocks {
		blk := make([]frontier.Pair, 40+rng.Intn(21))
		for i := range blk {
			blk[i] = frontier.Pair{ID: uint32(rng.Intn(1 << 10)), Val: uint64(rng.Intn(1<<16))<<32 | uint64(1+rng.Intn(6))}
		}
		blocks[b] = blk
		pairs += len(blk)
	}
	return blocks, pairs
}

// BenchmarkPairsCodec encodes and decodes replay-shaped pair blocks
// (replayBlocks) in both modes (off writes raw blocks), reporting ns and
// encoded bytes per pair.
func BenchmarkPairsCodec(b *testing.B) {
	blocks, pairs := replayBlocks()
	for _, mode := range modes {
		var msg []byte
		for _, blk := range blocks {
			msg, _ = appendPairs(msg, blk, mode, 0)
		}
		perPair := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
			b.ReportMetric(float64(len(msg))/float64(pairs), "B/pair")
		}
		b.Run(mode.String()+"/encode", func(b *testing.B) {
			buf := make([]byte, 0, len(msg))
			for i := 0; i < b.N; i++ {
				buf = buf[:0]
				for _, blk := range blocks {
					buf, _ = appendPairs(buf, blk, mode, 0)
				}
			}
			perPair(b)
		})
		b.Run(mode.String()+"/decode", func(b *testing.B) {
			var into []frontier.Pair
			for i := 0; i < b.N; i++ {
				for off := 0; off < len(msg); {
					var n int
					var err error
					if into, n, _, err = decodePairsInto(msg[off:], into, 0); err != nil {
						b.Fatal(err)
					}
					off += n
				}
			}
			perPair(b)
		})
	}
}
