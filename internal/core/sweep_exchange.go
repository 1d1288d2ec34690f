package core

// The sweep's record exchange: the exchanger a sweep's lanes hand the
// superstep loop (run.go). It is all-pairs only: record payloads are
// K/64-words wider than id payloads, so the butterfly's relay volume
// multiplies with w and its regime shrinks to irrelevance at the widths the
// sweep targets (the cmp5 ablation runs the sweep against both single-query
// strategies) — and it is ungated: every record message, empty or not, is
// delivered. Like the id exchange it sends ONE message per destination rank,
// every local GPU's records for that rank's slots merged into it, and it is
// charged as the id exchange is: the loop's accounting (exchangeCounts) and
// the all-pairs rule (allPairsRemoteTime), the NVLink aggregation tier
// included when a rank holds more than one GPU. Making exchange.go's
// strategies payload-generic, so a sweep can ride the butterfly and the
// presence contract too, is ROADMAP item 3.
//
// Record messages are wire record blocks in every compression mode; with the
// codec off they are raw blocks charged 4+8w bytes per record.
//
// Sender-side merging is the sweep's uniquify: all of a rank's bins for one
// destination slot are sorted and duplicate vertex ids collapse into one
// record with OR-ed query masks — the record analogue of the single-query
// dedup, and the source of the sweep's wire savings beyond amortization.

import (
	"fmt"

	"gcbfs/internal/bitmask"
	"gcbfs/internal/frontier"
	"gcbfs/internal/mpi"
	"gcbfs/internal/simgpu"
	"gcbfs/internal/wire"
)

// recordExchange is the one strategy a sweep has, for whatever the policy
// (pinned to all-pairs by newSweepSession) asks.
type recordExchange struct{ l *sweepLanes }

func (x recordExchange) announce(row []int64) []int64 { return row }
func (x recordExchange) rounds() int                  { return 1 }

func (x recordExchange) remoteTime(in remoteVolumes) remoteTiming {
	return x.l.e.allPairsRemoteTime(in)
}

func (x recordExchange) exchange(comm *mpi.Comm, iter int32, _ []int64) exchangeCounts {
	return x.l.e.exchangeRecords(comm, x.l.rank, x.l.gpus, x.l.sc, iter)
}

// mergeSlot gathers every local GPU's records bound for one destination GPU,
// sorts them by vertex id and collapses duplicates by OR-ing their query
// masks. The output is sorted and unique — exactly the pre-sorted contract
// the record codec's id sub-block relies on.
func (e *sweepSession) mergeSlot(sc *sweepScratch, myGPUs []*sweepGPU, dstGPU, s int, c *exchangeCounts) int64 {
	w := e.w
	mIDs, mMasks := sc.mIDs[:0], sc.mMasks[:0]
	for _, gs := range myGPUs {
		bin := gs.bins.IDs[dstGPU]
		if len(bin) == 0 {
			continue
		}
		mIDs = append(mIDs, bin...)
		mMasks = append(mMasks, gs.bins.Masks[dstGPU][:len(bin)*w]...)
	}
	sc.mIDs, sc.mMasks = mIDs, mMasks
	out, outM := sc.outIDs[s][:0], sc.outMasks[s][:0]
	if len(mIDs) > 0 {
		// Order the records by (id, index): the same stable by-id order a
		// comparison sort of the indices gives, through the radix pair sort.
		order := sc.order[:0]
		for i, id := range mIDs {
			order = append(order, frontier.Pair{ID: id, Val: uint64(i)})
		}
		sc.order = order
		frontier.SortPairs(order, &sc.orderBuf)
		for _, rec := range order {
			id, p := rec.ID, int(rec.Val)
			mask := mMasks[p*w : (p+1)*w]
			if n := len(out); n > 0 && out[n-1] == id {
				bitmask.RowOr(outM[(n-1)*w:n*w], mask)
				c.dups++
				continue
			}
			out = append(out, id)
			outM = append(outM, mask...)
		}
	}
	sc.outIDs[s], sc.outMasks[s] = out, outM
	return int64(len(mIDs))
}

// exchangeRecords runs one iteration's all-pairs record exchange for one
// rank: merge + encode + send per destination rank, apply intra-rank bins
// directly, then receive and apply every peer's records. The merged
// duplicates are its dups, and its single round's hop vectors hold one entry.
func (e *sweepSession) exchangeRecords(comm *mpi.Comm, rank int, myGPUs []*sweepGPU, sc *sweepScratch, iter int32) exchangeCounts {
	pgpu := e.shape.GPUsPerRank
	prank := e.shape.Ranks()
	mode := e.opts.Compression
	w := e.w
	w64 := int64(w)
	recBytes := 4 + 8*w64
	var c exchangeCounts

	var mergedRecords int64
	for dst := 0; dst < prank; dst++ {
		if dst == rank {
			continue
		}
		for s := 0; s < pgpu; s++ {
			mergedRecords += e.mergeSlot(sc, myGPUs, dst*pgpu+s, s, &c)
		}
		payload, st := sc.sel.EncodeSlots(dst, sc.outIDs, sc.outMasks, w, mode)
		c.message(st, mode)
		comm.Isend(dst, hopTag(iter, 0), payload)
	}
	// The sender-side sort+merge is the sweep's uniquify: charge it like the
	// single-query dedup, widened to the mask words each record moves.
	if mergedRecords > 0 {
		myGPUs[0].it.normalStream += e.charge(myGPUs[0].dev, simgpu.KernelCost{
			Vertices: 2 * mergedRecords * w64, Strategy: simgpu.TWBDynamic,
		})
	}

	// Intra-rank cross-GPU bins apply directly (NVLink, not NIC).
	var intraRecords int64
	for _, src := range myGPUs {
		for s := 0; s < pgpu; s++ {
			dstGPU := rank*pgpu + s
			if dstGPU == src.pg.GPU {
				continue
			}
			ids := src.bins.IDs[dstGPU]
			for i, id := range ids {
				e.discover(e.gpus[dstGPU], sc, id, src.bins.Mask(dstGPU, i))
			}
			intraRecords += int64(len(ids))
		}
	}
	c.intra = recBytes * intraRecords

	// Receives, applied straight from the arrival bins. Application order
	// across senders is irrelevant: a record only ORs query bits into the
	// destination row, and each query bit's level is written exactly once,
	// so the sweep needs no canonical-arrival sort.
	var applied int64
	for src := 0; src < prank; src++ {
		if src == rank {
			continue
		}
		buf := comm.Recv(src, hopTag(iter, 0))
		for s := 0; s < pgpu; s++ {
			sc.arrIDs[s] = sc.arrIDs[s][:0]
			sc.arrMasks[s] = sc.arrMasks[s][:0]
		}
		if err := wire.DecodeRecordsRank(buf, w, sc.arrIDs, sc.arrMasks); err != nil {
			panic(fmt.Errorf("core: corrupt sweep payload: %w", err))
		}
		n := countIDs(sc.arrIDs)
		c.received(mode, len(buf), recBytes*n)
		applied += n
		for s := 0; s < pgpu; s++ {
			gs := myGPUs[s]
			for i, id := range sc.arrIDs[s] {
				e.discover(gs, sc, id, sc.arrMasks[s][i*w:(i+1)*w])
			}
		}
	}
	// Scatter cost of applying received records on the destination GPUs.
	if applied+intraRecords > 0 {
		myGPUs[0].it.normalStream += e.charge(myGPUs[0].dev, simgpu.KernelCost{
			Vertices: (applied + intraRecords) * w64, Strategy: simgpu.TWBDynamic,
		})
	}
	for _, gs := range myGPUs {
		gs.bins.Reset()
	}
	sc.hops = [3]int64{c.sent, c.codecRaw, c.recv}
	c.hopBytes, c.hopCodecRaw, c.hopRecvBytes = sc.hops[0:1], sc.hops[1:2], sc.hops[2:3]
	return c
}
