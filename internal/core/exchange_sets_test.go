package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"gcbfs/internal/bitmask"
	"gcbfs/internal/graph"
	"gcbfs/internal/mpi"
	"gcbfs/internal/rmat"
	"gcbfs/internal/wire"
)

// This file is the exchange's set-semantics oracle. It drives the exchange
// alone — no kernels, no traversal: every superstep's bins are filled with
// seeded random ids, heavy with repeats inside a bin, across a rank's GPUs and
// across ranks, and one sourceLanes.exchange per rank moves them — and holds
// what is applied, what crosses the wire and what is accounted to what was
// binned.

// binFill is what one superstep puts into the bins: ids[src][dst] is what GPU
// src bins for GPU dst (nothing for itself).
type binFill struct {
	ids [][][]uint32
}

// randomFill draws a superstep's bins. Each destination GPU has a small hot
// set most of its senders draw from, so an id repeats within a bin, between
// sibling GPUs and between ranks; a few bins add ids from a wide range, a few
// stay empty, and some supersteps are nearly silent (the empty-post and
// empty-hop paths).
func randomFill(rng *rand.Rand, p int) binFill {
	f := binFill{ids: make([][][]uint32, p)}
	quiet := rng.Intn(4) == 0
	hot := make([][]uint32, p)
	for dst := range hot {
		hot[dst] = make([]uint32, 1+rng.Intn(24))
		for i := range hot[dst] {
			hot[dst][i] = uint32(rng.Intn(1024))
		}
	}
	for src := range f.ids {
		f.ids[src] = make([][]uint32, p)
		for dst := range f.ids[src] {
			if dst == src || rng.Intn(3) == 0 || (quiet && rng.Intn(8) != 0) {
				continue
			}
			n := 1 + rng.Intn(40)
			if rng.Intn(max(8, p)) == 0 {
				n = 600 + rng.Intn(600) // dense in the 1 024-id space: bitmap territory
			}
			bin := make([]uint32, n)
			for i := range bin {
				switch {
				case n > 100:
					bin[i] = uint32(rng.Intn(1024))
				case rng.Intn(6) == 0:
					bin[i] = uint32(rng.Intn(1 << 20))
				default:
					bin[i] = hot[dst][rng.Intn(len(hot[dst]))]
				}
			}
			f.ids[src][dst] = bin
		}
	}
	return f
}

// setOf is the ascending set of the ids in lists.
func setOf(lists ...[]uint32) []uint32 {
	var all []uint32
	for _, l := range lists {
		all = append(all, l...)
	}
	slices.Sort(all)
	return slices.Compact(all)
}

// driven is what one driven superstep left behind, per rank or per GPU.
type driven struct {
	strategy Exchange
	counts   []exchangeCounts // per rank (arrivals and hop vectors cloned)
	applied  [][]uint32       // per GPU, every id any apply call handed it, in call order
}

// relayAll takes one rank through the relay steps of ex's exchange, each
// followed by its rendezvous, as the driver does.
func relayAll(comm *mpi.Comm, ex exchanger, iter int32) {
	for k := range ex.relays() {
		ex.relay(comm, iter, k)
		comm.Barrier()
	}
}

// driveExchange runs one exchange per fill on every rank of s, under the
// strategy pick names for that superstep, with hook on the wire.
func driveExchange(s *Session, fills []binFill, pick func(round int) Exchange, hook mpi.SendHook) []driven {
	pgpu := s.shape.GPUsPerRank
	out := make([]driven, len(fills))
	for r := range out {
		out[r] = driven{strategy: pick(r), counts: make([]exchangeCounts, s.shape.Ranks()), applied: make([][]uint32, s.p)}
	}
	apply := func(gs *gpuState, ids []uint32, depth int32) {
		a := &out[depth-1].applied[gs.pg.GPU]
		*a = append(*a, ids...)
	}
	world := s.acquireWorld()
	world.SetSendHook(hook)
	defer world.SetSendHook(nil)
	var wg sync.WaitGroup
	for rank := 0; rank < world.Size(); rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			comm, sc := world.Rank(rank), s.scratch[rank]
			l := &sourceLanes{e: s, rank: rank, gpus: s.rankGPUs(rank), sc: sc}
			sc.rx.bind(&s.runEnv, rank, &sc.exchangeScratch, l)
			for round, f := range fills {
				for _, gs := range l.gpus {
					gs.it = iterWork{}
					for dst, ids := range f.ids[gs.pg.GPU] {
						for _, id := range ids {
							gs.bin(dst, id)
						}
					}
				}
				// The superstep's two rendezvous: the one the posts ride, and
				// the one after which a poster may rewrite its buffers.
				ex := l.exchanger(out[round].strategy)
				l.post(comm, ex, int32(round))
				comm.Barrier()
				relayAll(comm, ex, int32(round))
				c := *l.deliver(comm, ex, int32(round), apply)
				comm.Barrier()
				arrivals := make([][]uint32, pgpu)
				for slot, ids := range c.arrivals {
					arrivals[slot] = slices.Clone(ids)
				}
				c.arrivals = arrivals
				// The hop vectors live in the rank's scratch too.
				c.hopBytes, c.hopCodecRaw, c.hopRecvBytes = slices.Clone(c.hopBytes), slices.Clone(c.hopCodecRaw), slices.Clone(c.hopRecvBytes)
				out[round].counts[rank] = c
			}
		}(rank)
	}
	wg.Wait()
	return out
}

// noRepeatsOnTheWire is a send hook that decodes every message and counts the
// blocks it saw and the ones holding an id twice in a row (a repeat in a raw
// block, a zero gap in a delta stream; a bitmap cannot hold one).
func noRepeatsOnTheWire(t *testing.T, s *Session, pick func(round int) Exchange, blocks, repeats *atomic.Int64) mpi.SendHook {
	pgpu, prank := s.shape.GPUsPerRank, s.shape.Ranks()
	check := func(slots [][]uint32) {
		for _, ids := range slots {
			blocks.Add(1)
			for i := 1; i < len(ids); i++ {
				if ids[i] == ids[i-1] {
					repeats.Add(1)
					break
				}
			}
		}
	}
	return func(_, _, tag int, data []byte) []byte {
		if pick(tag/64) == ExchangeButterfly {
			secs, err := wire.DecodeSectionsScratch(data, pgpu, 0, prank, nil, nil, nil)
			if err != nil {
				t.Errorf("hop message does not decode: %v", err)
			}
			for _, sec := range secs {
				check(sec.Slots)
			}
		} else {
			slots := make([][]uint32, pgpu)
			err := wire.DecodeRankInto(data, slots)
			if err != nil {
				t.Errorf("rank message does not decode: %v", err)
			}
			check(slots)
		}
		return data
	}
}

// TestExchangeCarriesSets is the oracle: ranks 1, 3, 6 and 32 × 1, 2 and 4 GPUs
// per rank × all-pairs, butterfly and a seeded per-superstep mix of the two
// (what the hybrid policy produces) × the codec modes, over bins heavy with
// repeats.
//
// With a codec active: every GPU is applied exactly the set binned for it; the
// butterfly hands the apply that set itself — each id once, ascending, the
// union of its hops' sections — and all-pairs one set per sender; no block on
// the wire repeats an id; no rank forwards a negative volume; the originated
// volume (sentRaw − forwarded) is, per rank and superstep, the same number
// under all-pairs and butterfly, namely the staged sets' size; the codec is
// charged every binned id once on top of the messages it encoded and decoded;
// and Uniquify on or off puts the same bytes on the wire. With the codec off
// the exchange is the paper's: the multiset binned arrives whole.
func TestExchangeCarriesSets(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(9))
	const rounds = 6
	mixed := func(seed int64) func(int) Exchange {
		return func(round int) Exchange { return Exchange(rand.New(rand.NewSource(seed + int64(round))).Intn(2)) }
	}
	fixed := func(x Exchange) func(int) Exchange { return func(int) Exchange { return x } }
	for _, shape := range []ClusterShape{
		{Nodes: 1, RanksPerNode: 1, GPUsPerRank: 1}, {Nodes: 1, RanksPerNode: 1, GPUsPerRank: 4},
		{Nodes: 3, RanksPerNode: 1, GPUsPerRank: 1}, {Nodes: 3, RanksPerNode: 1, GPUsPerRank: 2},
		{Nodes: 3, RanksPerNode: 2, GPUsPerRank: 2}, {Nodes: 3, RanksPerNode: 2, GPUsPerRank: 4},
		{Nodes: 16, RanksPerNode: 2, GPUsPerRank: 1}, {Nodes: 16, RanksPerNode: 2, GPUsPerRank: 2},
	} {
		if testing.Short() && shape.Ranks() == 32 && shape.GPUsPerRank > 1 {
			continue
		}
		p, prank, pgpu := shape.P(), shape.Ranks(), shape.GPUsPerRank
		rng := rand.New(rand.NewSource(int64(24*p + pgpu)))
		fills := make([]binFill, rounds)
		for r := range fills {
			fills[r] = randomFill(rng, p)
		}
		// What was binned: for GPU g, by GPUs of other ranks (the exchange's
		// share) and by anyone else (siblings apply theirs directly).
		remote := func(r, g int) (lists [][]uint32) {
			for src := range fills[r].ids {
				if src/pgpu != g/pgpu {
					lists = append(lists, fills[r].ids[src][g])
				}
			}
			return lists
		}
		all := func(r, g int) (lists [][]uint32) {
			for src := range fills[r].ids {
				lists = append(lists, fills[r].ids[src][g])
			}
			return lists
		}
		for _, mode := range []wire.Mode{wire.ModeAdaptive, wire.ModeOff} {
			label := fmt.Sprintf("%s/%v", shape, mode)
			run := func(pick func(int) Exchange, uniq bool) []driven {
				opts := DefaultOptions()
				opts.Compression = mode
				opts.Uniquify = uniq
				plan := buildPlan(t, el, shape, 16, opts)
				s := plan.acquire(opts)
				defer plan.release(s)
				var blocks, repeats atomic.Int64
				got := driveExchange(s, fills, pick, noRepeatsOnTheWire(t, s, pick, &blocks, &repeats))
				if mode != wire.ModeOff && repeats.Load() != 0 {
					t.Errorf("%s uniq=%v: %d of %d blocks on the wire repeat an id", label, uniq, repeats.Load(), blocks.Load())
				}
				if prank > 1 && blocks.Load() == 0 {
					t.Fatalf("%s: no block crossed the wire", label)
				}
				return got
			}
			ap, bf := run(fixed(ExchangeAllPairs), false), run(fixed(ExchangeButterfly), false)
			for _, got := range [][]driven{ap, bf, run(mixed(int64(p)), false)} {
				for r, d := range got {
					for g := 0; g < p; g++ {
						if want := setOf(all(r, g)...); !slices.Equal(setOf(d.applied[g]), want) {
							t.Fatalf("%s %s superstep %d GPU %d: applied the set %v, binned %v", label, d.strategy, r, g, setOf(d.applied[g]), want)
						}
						arrived := d.counts[g/pgpu].arrivals[g%pgpu]
						if !slices.IsSorted(arrived) {
							t.Fatalf("%s %s superstep %d GPU %d: arrivals applied out of order", label, d.strategy, r, g)
						}
						switch lists := remote(r, g); {
						case mode == wire.ModeOff:
							var want []uint32
							for _, l := range lists {
								want = append(want, l...)
							}
							slices.Sort(want)
							if !slices.Equal(arrived, want) {
								t.Fatalf("%s %s superstep %d GPU %d: the uncompressed exchange delivered %d ids of the %d binned", label, d.strategy, r, g, len(arrived), len(want))
							}
						case d.strategy == ExchangeButterfly:
							if want := setOf(lists...); !slices.Equal(arrived, want) {
								t.Fatalf("%s butterfly superstep %d GPU %d: arrivals %v, want the union %v", label, r, g, arrived, want)
							}
						default:
							// One set per sending rank, concatenated and sorted.
							var want []uint32
							for src := 0; src < prank; src++ {
								if src != g/pgpu {
									var bins [][]uint32
									for _, from := range fills[r].ids[src*pgpu : (src+1)*pgpu] {
										bins = append(bins, from[g])
									}
									want = append(want, setOf(bins...)...)
								}
							}
							slices.Sort(want)
							if !slices.Equal(arrived, want) {
								t.Fatalf("%s all-pairs superstep %d GPU %d: arrivals %v, want each sender's set %v", label, r, g, arrived, want)
							}
						}
					}
				}
			}
			if mode == wire.ModeOff {
				continue
			}
			// Accounting, rank by rank and superstep by superstep.
			var bitmaps int64
			for r := range fills {
				for rank := 0; rank < prank; rank++ {
					a, b := ap[r].counts[rank], bf[r].counts[rank]
					bitmaps += a.scheme[wire.SchemeBitmap]
					var staged, binned int64
					for g := 0; g < p; g++ {
						if g/pgpu == rank {
							continue
						}
						var lists [][]uint32
						for src := rank * pgpu; src < (rank+1)*pgpu; src++ {
							lists = append(lists, fills[r].ids[src][g])
							binned += int64(len(fills[r].ids[src][g]))
						}
						staged += int64(len(setOf(lists...)))
					}
					if a.forwarded != 0 || b.forwarded < 0 {
						t.Fatalf("%s superstep %d rank %d: forwarded %d under all-pairs, %d under butterfly", label, r, rank, a.forwarded, b.forwarded)
					}
					if oa, ob := a.sentRaw-a.forwarded, b.sentRaw-b.forwarded; oa != 4*staged || ob != 4*staged {
						t.Fatalf("%s superstep %d rank %d: originated %d under all-pairs, %d under butterfly, staged 4·%d", label, r, rank, oa, ob, staged)
					}
					// Encode: every binned id once (the stage), plus what a
					// relay re-encodes; decode: every message received.
					if want := 4*binned + a.arrived*4; a.codecRaw != want {
						t.Fatalf("%s superstep %d rank %d: all-pairs codec charge %d, want binned + arrived = %d", label, r, rank, a.codecRaw, want)
					}
					if floor := 4*binned + b.forwarded; b.codecRaw < floor || b.preCodecRaw < 4*(binned-staged) {
						t.Fatalf("%s superstep %d rank %d: butterfly codec charge %d (pre %d) below binned + forwarded = %d", label, r, rank, b.codecRaw, b.preCodecRaw, floor)
					}
					var stages int64
					for _, h := range b.hopCodecRaw {
						stages += h
					}
					if b.preCodecRaw+stages != b.codecRaw {
						t.Fatalf("%s superstep %d rank %d: butterfly stages %d + %d ≠ codecRaw %d", label, r, rank, b.preCodecRaw, stages, b.codecRaw)
					}
				}
			}
			// A dense bin is full of repeats as binned and a bitmap's best case
			// as staged.
			if mode == wire.ModeAdaptive && prank > 1 && bitmaps == 0 {
				t.Fatalf("%s: the adaptive selector never picked a bitmap for a dense set", label)
			}
			// U moves where a duplicate is dropped, not what is sent.
			for _, x := range []Exchange{ExchangeAllPairs, ExchangeButterfly} {
				plain := map[Exchange][]driven{ExchangeAllPairs: ap, ExchangeButterfly: bf}[x]
				var dups int64
				for r, d := range run(fixed(x), true) {
					for rank, c := range d.counts {
						was := plain[r].counts[rank]
						if c.sent != was.sent || c.sentRaw != was.sentRaw || c.forwarded != was.forwarded || c.scheme != was.scheme {
							t.Fatalf("%s %s superstep %d rank %d: Uniquify changed the wire: sent %d/%d raw %d/%d forwarded %d/%d schemes %v/%v",
								label, x, r, rank, c.sent, was.sent, c.sentRaw, was.sentRaw, c.forwarded, was.forwarded, c.scheme, was.scheme)
						}
						dups += c.dups
					}
				}
				if p > 1 && dups == 0 {
					t.Fatalf("%s %s: Uniquify removed nothing from bins full of repeats", label, x)
				}
			}
		}
		checkRecordSets(t, el, shape, fills, mixed(int64(p)))
	}
}

// recordFill is one superstep's sweep bins: binFill's ids folded into each
// destination GPU's local id space — a sweep applies what arrives, so they
// must be vertices — each with a w-word lane set of one to three lanes.
type recordFill struct {
	ids   [][][]uint32
	lanes [][][]uint64 // flat, w words per id
}

func randomRecords(rng *rand.Rand, f binFill, e *sweepSession) recordFill {
	r := recordFill{ids: make([][][]uint32, e.p), lanes: make([][][]uint64, e.p)}
	for src := range f.ids {
		r.ids[src], r.lanes[src] = make([][]uint32, e.p), make([][]uint64, e.p)
		for dst, bin := range f.ids[src] {
			n := uint32(e.gpus[dst].pg.NumLocal)
			for _, id := range bin {
				row := make([]uint64, e.w)
				for k := 1 + rng.Intn(3); k > 0; k-- {
					q := rng.Intn(e.k)
					row[q/64] |= 1 << (q % 64)
				}
				r.ids[src][dst] = append(r.ids[src][dst], id%n)
				r.lanes[src][dst] = append(r.lanes[src][dst], row...)
			}
		}
	}
	return r
}

// drivenRecords is what one driven sweep superstep left behind.
type drivenRecords struct {
	strategy Exchange
	counts   []exchangeCounts // per rank (arrivals, their lanes and hop vectors cloned)
	visited  [][]uint64       // per GPU, the visited matrix after the apply
}

// pgpuRows clones rows into exactly n rows (the butterfly hands over none
// when nothing arrived).
func pgpuRows[T any](rows [][]T, n int) [][]T {
	out := make([][]T, n)
	for s, r := range rows {
		out[s] = slices.Clone(r)
	}
	return out
}

// driveSweepExchange is driveExchange for a sweep's lanes: each superstep
// starts every GPU from an empty visited matrix, fills its record bins and
// runs one sweepLanes.exchange per rank.
func driveSweepExchange(e *sweepSession, fills []recordFill, pick func(round int) Exchange, hook mpi.SendHook) []drivenRecords {
	pgpu, w := e.shape.GPUsPerRank, e.w
	out := make([]drivenRecords, len(fills))
	for r := range out {
		out[r] = drivenRecords{strategy: pick(r), counts: make([]exchangeCounts, e.shape.Ranks()), visited: make([][]uint64, e.p)}
	}
	e.world.SetSendHook(hook)
	defer e.world.SetSendHook(nil)
	var wg sync.WaitGroup
	for rank := 0; rank < e.world.Size(); rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			comm, l := e.world.Rank(rank), &e.scratch[rank].lanes
			for round, f := range fills {
				for _, gs := range l.gpus {
					gs.vis.Reset()
					gs.nxt.Reset()
					gs.outIDs = gs.outIDs[:0]
					g := gs.pg.GPU
					for dst, ids := range f.ids[g] {
						for i, id := range ids {
							gs.bins.Add(dst, id, f.lanes[g][dst][i*w:(i+1)*w])
						}
					}
				}
				ex := l.exchanger(out[round].strategy)
				l.post(comm, ex, int32(round))
				comm.Barrier()
				relayAll(comm, ex, int32(round))
				c := *l.exchange(comm, ex, int32(round))
				comm.Barrier()
				c.arrivals, c.arrivalLanes = pgpuRows(c.arrivals, pgpu), pgpuRows(c.arrivalLanes, pgpu)
				c.hopBytes, c.hopCodecRaw, c.hopRecvBytes = slices.Clone(c.hopBytes), slices.Clone(c.hopCodecRaw), slices.Clone(c.hopRecvBytes)
				out[round].counts[rank] = c
				for _, gs := range l.gpus {
					out[round].visited[gs.pg.GPU] = slices.Clone(gs.vis.Words())
				}
			}
		}(rank)
	}
	wg.Wait()
	return out
}

// orByID ORs the lane sets of every record in ids/lanes into one row per id.
func orByID(into map[uint32][]uint64, ids []uint32, lanes []uint64, w int) {
	for i, id := range ids {
		row := into[id]
		if row == nil {
			row = make([]uint64, w)
			into[id] = row
		}
		bitmask.RowOr(row, lanes[i*w:(i+1)*w])
	}
}

// checkRecordSets is TestExchangeCarriesSets for a K = 70 sweep's records (two
// lane words each) on the same bins, folded into the GPUs' vertex ranges and
// given lane sets: records are sets in every mode. Every block on the wire
// decodes as a set; every GPU ends up visited, for every vertex, at exactly
// the OR of the lane sets binned for it; the butterfly delivers each vertex
// once with the OR of its remote lane sets — every relay having forwarded it
// once — and all-pairs one record per vertex per sending rank; the originated
// volume is the staged sets' 4+8w bytes per record on either strategy, what
// the stage OR-ed away is its dups, and the codec is charged the messages
// alone.
func checkRecordSets(t *testing.T, el *graph.EdgeList, shape ClusterShape, bins []binFill, mixed func(int) Exchange) {
	t.Helper()
	p, prank, pgpu := shape.P(), shape.Ranks(), shape.GPUsPerRank
	fixed := func(x Exchange) func(int) Exchange { return func(int) Exchange { return x } }
	for _, mode := range []wire.Mode{wire.ModeAdaptive, wire.ModeOff} {
		opts := DefaultOptions()
		opts.Compression = mode
		plan := buildPlan(t, el, shape, 16, opts)
		sources := pickSources(el.OutDegrees(), 70, 3)
		rng := rand.New(rand.NewSource(int64(7*p + pgpu)))
		var fills []recordFill
		for _, f := range bins {
			fills = append(fills, randomRecords(rng, f, plan.newSweepSession(opts, sources)))
		}
		run := func(pick func(int) Exchange) []drivenRecords {
			e := plan.newSweepSession(opts, sources)
			w := e.w
			var blocks atomic.Int64
			got := driveSweepExchange(e, fills, pick, func(_, _, tag int, data []byte) []byte {
				var err error
				if pick(tag/64) == ExchangeButterfly {
					var secs []wire.Section
					secs, err = wire.DecodeSectionsScratch(data, pgpu, w, prank, nil, nil, nil)
					for _, sec := range secs {
						blocks.Add(int64(len(sec.Slots)))
					}
				} else {
					err = wire.DecodeRankLanesInto(data, make([][]uint32, pgpu), make([][]uint64, pgpu), w)
					blocks.Add(int64(pgpu))
				}
				if err != nil {
					t.Errorf("%s/%v records: a message does not decode to sets: %v", shape, mode, err)
				}
				return data
			})
			if prank > 1 && blocks.Load() == 0 {
				t.Fatalf("%s/%v records: no block crossed the wire", shape, mode)
			}
			return got
		}
		const w, rec = 2, 4 + 8*2
		ap, bf := run(fixed(ExchangeAllPairs)), run(fixed(ExchangeButterfly))
		for _, got := range [][]drivenRecords{ap, bf, run(mixed)} {
			for r, d := range got {
				label := fmt.Sprintf("%s/%v records %s superstep %d", shape, mode, d.strategy, r)
				f := fills[r]
				for g := 0; g < p; g++ {
					all, remote, arrived := map[uint32][]uint64{}, map[uint32][]uint64{}, map[uint32][]uint64{}
					var perSender int
					for src := 0; src < p; src++ {
						orByID(all, f.ids[src][g], f.lanes[src][g], w)
						if src/pgpu != g/pgpu {
							orByID(remote, f.ids[src][g], f.lanes[src][g], w)
						}
					}
					for src := 0; src < prank; src++ {
						if src != g/pgpu {
							var lists [][]uint32
							for from := src * pgpu; from < (src+1)*pgpu; from++ {
								lists = append(lists, f.ids[from][g])
							}
							perSender += len(setOf(lists...))
						}
					}
					for v, want := range all {
						if got := d.visited[g][int(v)*w : (int(v)+1)*w]; !slices.Equal(got, want) {
							t.Fatalf("%s GPU %d vertex %d: visited lanes %x, binned %x", label, g, v, got, want)
						}
					}
					ids, lanes := d.counts[g/pgpu].arrivals[g%pgpu], d.counts[g/pgpu].arrivalLanes[g%pgpu]
					orByID(arrived, ids, lanes, w)
					if len(arrived) != len(remote) {
						t.Fatalf("%s GPU %d: %d vertices arrived, %d binned remotely", label, g, len(arrived), len(remote))
					}
					for v, want := range remote {
						if !slices.Equal(arrived[v], want) {
							t.Fatalf("%s GPU %d vertex %d: arrived lanes %x, binned %x", label, g, v, arrived[v], want)
						}
					}
					if want := map[Exchange]int{ExchangeAllPairs: perSender, ExchangeButterfly: len(remote)}[d.strategy]; len(ids) != want || d.strategy == ExchangeButterfly && !isSet(ids) {
						t.Fatalf("%s GPU %d: %d records arrived (a set: %v), want %d", label, g, len(ids), isSet(ids), want)
					}
				}
			}
		}
		for r := range fills {
			for rank := 0; rank < prank; rank++ {
				a, b := ap[r].counts[rank], bf[r].counts[rank]
				var staged, binned int64
				for g := 0; g < p; g++ {
					if g/pgpu == rank {
						continue
					}
					var lists [][]uint32
					for src := rank * pgpu; src < (rank+1)*pgpu; src++ {
						lists = append(lists, fills[r].ids[src][g])
						binned += int64(len(fills[r].ids[src][g]))
					}
					staged += int64(len(setOf(lists...)))
				}
				label := fmt.Sprintf("%s/%v records superstep %d rank %d", shape, mode, r, rank)
				if a.forwarded != 0 || b.forwarded < 0 || a.sentRaw-a.forwarded != rec*staged || b.sentRaw-b.forwarded != rec*staged {
					t.Fatalf("%s: originated %d/%d (forwarded %d/%d) under all-pairs/butterfly, staged %d records", label, a.sentRaw-a.forwarded, b.sentRaw-b.forwarded, a.forwarded, b.forwarded, staged)
				}
				if a.dups != binned-staged || b.dups != binned-staged {
					t.Fatalf("%s: dups %d/%d, the stage OR-ed %d records away", label, a.dups, b.dups, binned-staged)
				}
				if want := codecWork(mode, a.sentRaw+rec*a.arrived); a.codecRaw != want {
					t.Fatalf("%s: all-pairs codec charge %d, want the messages' %d", label, a.codecRaw, want)
				}
			}
		}
	}
}
