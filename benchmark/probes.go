package main

import (
	"math/rand"
	"sync"
	"time"

	"gcbfs/internal/bitmask"
	"gcbfs/internal/frontier"
	"gcbfs/internal/mpi"
	"gcbfs/internal/wire"
)

// probeSizes carries the workload's own counts, so each probe replays its
// layer's public function on inputs of the size the workload produces.
type probeSizes struct {
	ranks, gpusPerRank int
	delegates          int64
	localN             int // vertices per GPU: the id space of a message
	idsPerMsg          int // mean ids in one inter-rank message
	msgBytes           int // mean bytes of one inter-rank message
	mode               wire.Mode
}

// probeCount is the number of timed probes runProbes makes; the traced pass
// divides its probe budget by it.
const probeCount = 15

// sample times batch repeatedly until budget is spent (at least once after
// a warm-up call) and returns the median seconds per batch.
func sample(budget time.Duration, batch func()) float64 {
	batch()
	var samples []float64
	deadline := time.Now().Add(budget)
	for {
		t0 := time.Now()
		batch()
		samples = append(samples, time.Since(t0).Seconds())
		if !time.Now().Before(deadline) {
			return median(samples)
		}
	}
}

// sortedIDs returns k distinct ascending ids spread over [0, space).
func sortedIDs(rng *rand.Rand, k, space int) []uint32 {
	k = max(min(k, space), 1)
	stride := max(space/k, 1)
	ids := make([]uint32, k)
	for i := range ids {
		ids[i] = uint32(i*stride + rng.Intn(stride))
	}
	return ids
}

// inner is how many times a probe repeats its call inside one timed batch,
// so that a batch moves about 64 K ids and the clock reads cost nothing.
func inner(idsPerCall int) int {
	return max(1<<16/max(idsPerCall, 1), 1)
}

// ranksDo starts one goroutine per rank of a fresh world, has each build its
// round with rank and then run it rounds times, and waits for all of them.
func ranksDo(p, rounds int, rank func(c *mpi.Comm) (round func())) {
	w := mpi.NewWorld(p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(c *mpi.Comm) {
			defer wg.Done()
			round := rank(c)
			for i := 0; i < rounds; i++ {
				round()
			}
		}(w.Rank(r))
	}
	wg.Wait()
}

// runProbes times the leaf layers' public functions. Each probe is one span.
func runProbes(sz probeSizes, budget time.Duration, tr *tracer) map[string]float64 {
	rng := rand.New(rand.NewSource(1))
	out := map[string]float64{}
	probe := func(name string, batch func()) float64 {
		id := tr.begin("probe."+name, -1, -1)
		s := sample(budget, batch)
		tr.end(id)
		return s
	}
	g := sz.gpusPerRank
	perSlot := max(sz.idsPerMsg/g, 1)
	slots := make([][]uint32, g)
	sorted := make([]bool, g)
	for s := range slots {
		slots[s] = sortedIDs(rng, perSlot, sz.localN)
		sorted[s] = true
	}
	msgIDs := 0
	for _, s := range slots {
		msgIDs += len(s)
	}
	reps := inner(msgIDs)
	rawMB := float64(4*msgIDs*reps) / 1e6
	into := make([][]uint32, g)
	clearInto := func() {
		for s := range into {
			into[s] = into[s][:0]
		}
	}

	// wire: the id codec in the workload's mode (adaptive where the
	// workload runs with compression off and never calls it).
	mode := sz.mode
	if mode == wire.ModeOff {
		mode = wire.ModeAdaptive
	}
	sel := wire.NewSelectorSized(sz.ranks * g)
	var buf []byte
	out["wire.encode_mb_s"] = rawMB / probe("wire.encode", func() {
		for i := 0; i < reps; i++ {
			buf, _ = sel.AppendRank(buf[:0], i%sz.ranks, slots, sorted, mode)
		}
	})
	out["wire.decode_mb_s"] = rawMB / probe("wire.decode", func() {
		for i := 0; i < reps; i++ {
			clearInto()
			if err := wire.DecodeRankInto(buf, into); err != nil {
				panic(err) // the probe's own encoding cannot be corrupt
			}
		}
	})

	// wire records: the sweep's (id, query-set) blocks, one word per id.
	const words = sweepWidth / 64
	ids := sortedIDs(rng, sz.idsPerMsg, sz.localN)
	masks := make([]uint64, len(ids)*words)
	for i := range masks {
		masks[i] = 1 << rng.Intn(64)
	}
	recReps := inner(len(ids))
	recMB := float64(len(ids)*(4+8*words)*recReps) / 1e6
	var rbuf []byte
	out["wire.records_encode_mb_s"] = recMB / probe("wire.records_encode", func() {
		for i := 0; i < recReps; i++ {
			rbuf, _, _ = wire.AppendRecords(rbuf[:0], ids, masks, words, mode)
		}
	})
	var idDst []uint32
	var maskDst []uint64
	out["wire.records_decode_mb_s"] = recMB / probe("wire.records_decode", func() {
		for i := 0; i < recReps; i++ {
			var err error
			if idDst, maskDst, _, err = wire.DecodeRecordsAppend(rbuf, words, idDst[:0], maskDst[:0]); err != nil {
				panic(err)
			}
		}
	})

	// frontier: merge of the rank's per-GPU bins, sort+unique of one
	// message's ids, and the fixed-width pack/unpack of compression off.
	lists := slots
	if len(lists) < 2 {
		lists = [][]uint32{slots[0], sortedIDs(rng, perSlot, sz.localN)}
	}
	merged := 0
	for _, l := range lists {
		merged += len(l)
	}
	var arena frontier.Arena
	mergeReps := inner(merged)
	out["frontier.merge_ns_per_id"] = 1e9 / float64(merged*mergeReps) * probe("frontier.merge", func() {
		arena.Reset()
		for i := 0; i < mergeReps; i++ {
			frontier.MergeSortedArena(&arena, lists)
		}
	})
	shuffled := make([]uint32, max(sz.idsPerMsg, 2))
	for i := range shuffled {
		shuffled[i] = uint32(rng.Intn(max(sz.localN, 1)))
	}
	scratch := make([]uint32, len(shuffled))
	sortReps := inner(len(shuffled))
	out["frontier.sort_unique_ns_per_id"] = 1e9 / float64(len(shuffled)*sortReps) * probe("frontier.sort_unique", func() {
		for i := 0; i < sortReps; i++ {
			copy(scratch, shuffled)
			frontier.SortUnique(scratch)
		}
	})
	bins := frontier.NewBins(sz.ranks * g)
	for s, l := range slots {
		for _, id := range l {
			bins.Add(s, id)
		}
	}
	var packed []byte
	out["frontier.pack_mb_s"] = rawMB / probe("frontier.pack", func() {
		for i := 0; i < reps; i++ {
			packed = bins.PackRank(0, g)
		}
	})
	out["frontier.unpack_mb_s"] = rawMB / probe("frontier.unpack", func() {
		for i := 0; i < reps; i++ {
			clearInto()
			if err := frontier.UnpackRankInto(packed, into); err != nil {
				panic(err)
			}
		}
	})

	// bitmask: whole-mask OR and set-bit walk at the workload's delegate
	// count, and the sweep's per-row OR at K = 64.
	d := max(sz.delegates, 64)
	a, b := bitmask.New(d), bitmask.New(d)
	set := 0
	for i := int64(0); i < d; i += 8 {
		b.Set(i)
		set++
	}
	orReps := inner(int(d / 32))
	out["bitmask.or_gb_s"] = float64(b.ByteSize()) * float64(orReps) / 1e9 / probe("bitmask.or", func() {
		for i := 0; i < orReps; i++ {
			a.Or(b)
		}
	})
	walkReps := inner(set)
	visited := 0
	out["bitmask.foreach_ns_per_bit"] = 1e9 / float64(set*walkReps) * probe("bitmask.foreach", func() {
		for i := 0; i < walkReps; i++ {
			b.ForEach(func(int64) { visited++ })
		}
	})
	m := bitmask.NewMatrix(d, sweepWidth)
	row := []uint64{0x8000000000000001}
	out["bitmask.row_or_ns"] = 1e9 / float64(d) * probe("bitmask.row_or", func() {
		for r := int64(0); r < d; r++ {
			bitmask.RowOr(m.Row(r), row)
		}
	})

	// mpi: the collectives and one all-to-all round at the workload's rank
	// count, on as many goroutines as the engine uses.
	const rounds = 32
	p := sz.ranks
	maskWords := int((sz.delegates + 63) / 64)
	out["mpi.allreduce_or_us"] = 1e6 / rounds * probe("mpi.allreduce_or", func() {
		ranksDo(p, rounds, func(c *mpi.Comm) func() {
			words := make([]uint64, max(maskWords, 1))
			return func() { c.AllreduceOr(words) }
		})
	})
	out["mpi.allreduce_sum_us"] = 1e6 / rounds * probe("mpi.allreduce_sum", func() {
		ranksDo(p, rounds, func(c *mpi.Comm) func() {
			sums := make([]int64, 13) // the engine's per-superstep counter vector
			return func() { c.AllreduceSum(sums) }
		})
	})
	payload := make([]byte, max(sz.msgBytes, 1))
	out["mpi.alltoall_round_us"] = 1e6 / rounds * probe("mpi.alltoall_round", func() {
		ranksDo(p, rounds, func(c *mpi.Comm) func() {
			return func() {
				for dst := 0; dst < p; dst++ {
					if dst != c.Rank() {
						c.Isend(dst, 1, payload)
					}
				}
				for src := 0; src < p; src++ {
					if src != c.Rank() {
						c.Recv(src, 1)
					}
				}
			}
		})
	})
	const worlds = 64
	out["mpi.new_world_us"] = 1e6 / worlds * probe("mpi.new_world", func() {
		for i := 0; i < worlds; i++ {
			mpi.NewWorld(p)
		}
	})
	return out
}
