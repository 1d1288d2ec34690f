package core

// The sweep's per-rank BSP loop and its record exchange. The exchange is
// all-pairs only: record payloads are K/64-words wider than id payloads, so
// the butterfly's relay volume multiplies with w and its regime shrinks to
// irrelevance at the widths the sweep targets (the cmp5 ablation runs the
// sweep against both single-query strategies).
//
// Sender-side merging is the sweep's uniquify: all of a rank's bins for one
// destination slot are sorted and duplicate vertex ids collapse into one
// record with OR-ed query masks — the record analogue of the single-query
// dedup, and the source of the sweep's wire savings beyond amortization.

import (
	"context"

	"gcbfs/internal/bitmask"
	"gcbfs/internal/faults"
	"gcbfs/internal/frontier"
	"gcbfs/internal/metrics"
	"gcbfs/internal/mpi"
	"gcbfs/internal/simgpu"
	"gcbfs/internal/wire"
)

// sweepExchangeCounts is one rank's accounting for one iteration's record
// exchange.
type sweepExchangeCounts struct {
	sent       int64 // bytes counted as sent (codec framing included when active)
	sentRaw    int64 // fixed-width (4+8w)·records equivalent
	recv       int64
	intra      int64 // intra-rank fixed-width volume (NVLink)
	messages   int64
	memoHits   int64
	codecRaw   int64
	dupsMerged int64 // records collapsed by the sender-side mask merge
	applied    int64 // remote records applied on this rank's GPUs
	scheme     [wire.NumSchemes]int64
}

// mergeSlot gathers every local GPU's records bound for one destination GPU,
// sorts them by vertex id and collapses duplicates by OR-ing their query
// masks. The output is sorted and unique — exactly the pre-sorted contract
// the record codec's id sub-block relies on.
func (e *sweepSession) mergeSlot(sc *sweepScratch, myGPUs []*sweepGPU, dstGPU, s int, c *sweepExchangeCounts) int64 {
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
				c.dupsMerged++
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
// directly, then receive and apply every peer's records.
func (e *sweepSession) exchangeRecords(comm *mpi.Comm, rank int, myGPUs []*sweepGPU, sc *sweepScratch, iter int32) sweepExchangeCounts {
	pgpu := e.shape.GPUsPerRank
	prank := e.shape.Ranks()
	mode := e.opts.Compression
	w := e.w
	w64 := int64(w)
	recBytes := 4 + 8*w64
	var c sweepExchangeCounts

	var mergedRecords int64
	for dst := 0; dst < prank; dst++ {
		if dst == rank {
			continue
		}
		for s := 0; s < pgpu; s++ {
			mergedRecords += e.mergeSlot(sc, myGPUs, dst*pgpu+s, s, &c)
		}
		var payload []byte
		if mode == wire.ModeOff {
			payload = frontier.PackRecordsRank(sc.outIDs, sc.outMasks, w)
			var n int64
			for s := range sc.outIDs {
				n += int64(len(sc.outIDs[s]))
			}
			c.sent += recBytes * n
			c.sentRaw += recBytes * n
		} else {
			var st wire.Stats
			payload, st = sc.sel.EncodeSlots(dst, sc.outIDs, sc.outMasks, w, mode)
			c.sent += st.EncodedBytes
			c.sentRaw += st.RawBytes
			c.codecRaw += st.RawBytes
			for i, n := range st.Selected {
				c.scheme[i] += n
			}
			c.memoHits += st.MemoHits
		}
		c.messages++
		comm.Isend(dst, hopTag(iter, 0), payload)
	}
	// The sender-side sort+merge is the sweep's uniquify: charge it like the
	// single-query dedup, widened to the mask words each record moves.
	if mergedRecords > 0 {
		myGPUs[0].it.normalStream += e.charge(myGPUs[0], simgpu.KernelCost{
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
				e.discover(e.gpus[dstGPU], sc, id, src.bins.Mask(dstGPU, i), iter+1)
			}
			intraRecords += int64(len(ids))
		}
	}
	c.intra = recBytes * intraRecords

	// Receives, applied straight from the arrival bins. Application order
	// across senders is irrelevant: a record only ORs query bits into the
	// destination row, and each query bit's level is written exactly once,
	// so the sweep needs no canonical-arrival sort.
	for src := 0; src < prank; src++ {
		if src == rank {
			continue
		}
		buf := comm.Recv(src, hopTag(iter, 0))
		for s := 0; s < pgpu; s++ {
			sc.arrIDs[s] = sc.arrIDs[s][:0]
			sc.arrMasks[s] = sc.arrMasks[s][:0]
		}
		var err error
		if mode == wire.ModeOff {
			c.recv += int64(len(buf)) - 4*int64(pgpu)
			err = frontier.UnpackRecordsRankInto(buf, w, sc.arrIDs, sc.arrMasks)
		} else {
			c.recv += int64(len(buf))
			err = wire.DecodeRecordsRank(buf, w, sc.arrIDs, sc.arrMasks)
		}
		if err != nil {
			panic(corruptErr("core: corrupt sweep payload", err))
		}
		for s := 0; s < pgpu; s++ {
			gs := myGPUs[s]
			ids := sc.arrIDs[s]
			for i, id := range ids {
				e.discover(gs, sc, id, sc.arrMasks[s][i*w:(i+1)*w], iter+1)
			}
			n := int64(len(ids))
			c.applied += n
			if mode != wire.ModeOff {
				c.codecRaw += recBytes * n
			}
		}
	}
	// Scatter cost of applying received records on the destination GPUs.
	if c.applied+intraRecords > 0 {
		myGPUs[0].it.normalStream += e.charge(myGPUs[0], simgpu.KernelCost{
			Vertices: (c.applied + intraRecords) * w64, Strategy: simgpu.TWBDynamic,
		})
	}
	for _, gs := range myGPUs {
		gs.bins.Reset()
	}
	return c
}

// runRank is the sweep's per-rank BSP loop — the record analogue of
// Session.runRank, minus direction optimization (forward-only) and the
// per-iteration exchange policy (all-pairs only).
func (e *sweepSession) runRank(ctx context.Context, rank int, comm *mpi.Comm, rec *sweepRecorder) {
	pgpu := e.shape.GPUsPerRank
	prank := e.shape.Ranks()
	myGPUs := e.gpus[rank*pgpu : (rank+1)*pgpu]
	sc := e.scratch[rank]
	w64 := int64(e.w)
	maskBytes := e.d * w64 * 8
	cancelled := false

	for iter := int32(0); ; iter++ {
		// ---- Fault injection (chaos testing): see Session.runRank.
		if in := e.opts.Inject; in != nil {
			in.Crash(rank, int(iter), faults.SiteIter)
		}
		// ---- Local computation (all GPUs of this rank).
		for _, gs := range myGPUs {
			gs.it = sweepIterWork{}
			e.runKernels(gs, sc, iter)
		}

		// ---- Delegate matrix reduction: local OR to "GPU0", then global OR
		// allreduce, skipped on iterations without updates anywhere.
		copy(sc.rankD, myGPUs[0].newD.Words())
		for _, gs := range myGPUs[1:] {
			bitmask.RowOr(sc.rankD, gs.newD.Words())
		}
		anyGlobal := comm.AllreduceBoolOr(bitmask.RowAny(sc.rankD))
		maskExchanged := false
		var newDelegates int64
		if anyGlobal {
			comm.AllreduceOr(sc.rankD)
			maskExchanged = true
			for _, gs := range myGPUs {
				newDelegates = e.commitDelegates(gs, sc, iter)
				gs.newD.Reset()
			}
		} else {
			for _, gs := range myGPUs {
				gs.frontD.Reset()
				gs.newD.Reset()
			}
		}

		// ---- Record exchange (§V-B widened to (id, mask) records).
		c := e.exchangeRecords(comm, rank, myGPUs, sc, iter)

		// ---- Timing assembly (model time, reduced across ranks).
		var comp float64
		for _, gs := range myGPUs {
			if t := streamCombine(gs.it.delegateStream, gs.it.normalStream); t > comp {
				comp = t
			}
		}
		// Injected stall: timing skew only, results stay bit-identical.
		if in := e.opts.Inject; in != nil {
			comp += in.Stall(rank, int(iter), faults.SiteIter)
		}
		aSent, aRecv, aIntra := e.ampBytes(c.sent), e.ampBytes(c.recv), e.ampBytes(c.intra)
		aMask := e.ampBytes(maskBytes)
		var localComm float64
		if maskExchanged {
			localComm += e.opts.Net.LocalReduce(aMask, pgpu)
			localComm += e.opts.Net.LocalBroadcast(aMask, pgpu)
		}
		if e.opts.LocalAll2All && aSent > 0 && pgpu > 1 {
			localComm += e.opts.Net.LocalExchange(aSent*int64(pgpu-1)/int64(pgpu), pgpu)
		}
		localComm += e.opts.Net.Staging(aSent) + e.opts.Net.Staging(aRecv) + e.opts.Net.Staging(aIntra)
		var remoteDelegate float64
		if maskExchanged {
			remoteDelegate = e.opts.Net.Allreduce(aMask, prank, e.opts.BlockingReduce)
		}
		vec := append(sc.vec[:0], comp, localComm, remoteDelegate,
			float64(aSent), float64(e.ampBytes(c.codecRaw)))
		sc.vec = vec
		sc.fbits = maxFloatsAllreduce(comm, vec, sc.fbits)
		maxWire := int64(vec[3])
		msg := effMessageBytesFor(&e.opts, e.shape, maxWire)
		codecSecs := e.opts.GPU.CodecTime(int64(vec[4]))
		remoteNormal := e.opts.Net.PointToPoint(maxWire, msg) + codecSecs
		parts := metrics.Breakdown{
			Computation:    vec[0],
			LocalComm:      vec[1],
			RemoteNormal:   remoteNormal,
			RemoteDelegate: vec[2],
		}
		elapsed := iterElapsedFor(&e.opts, e.shape, parts)

		// ---- Global sums: work stats, termination flag, context observation.
		var nextNormals, edges, logical int64
		for _, gs := range myGPUs {
			nextNormals += int64(len(gs.outIDs))
			edges += gs.it.edges
			logical += gs.it.logical
		}
		flag := int64(0)
		if nextNormals > 0 || newDelegates > 0 {
			flag = 1
		}
		ctxDead := int64(0)
		if ctx.Err() != nil {
			ctxDead = 1
		}
		sums := append(sc.sums[:0], flag, edges, logical, c.sent, c.sentRaw,
			c.messages, c.scheme[wire.SchemeRaw], c.scheme[wire.SchemeDelta],
			c.scheme[wire.SchemeBitmap], c.memoHits, c.codecRaw, c.dupsMerged, ctxDead)
		sc.sums = sums
		comm.AllreduceSum(sums)

		if rank == 0 {
			rec.iterations++
			rec.edges += sums[1]
			rec.logical += sums[2]
			rec.dupsMerged += sums[11]
			rec.simSeconds += elapsed
			rec.parts.Add(parts)
			rec.wire.CompressedBytes += sums[3]
			rec.wire.RawBytes += sums[4]
			rec.wire.SchemeRaw += sums[6]
			rec.wire.SchemeDelta += sums[7]
			rec.wire.SchemeBitmap += sums[8]
			rec.wire.MemoHits += sums[9]
			rec.wire.CodecBytes += sums[10]
			rec.wire.CodecSeconds += codecSecs
			rec.messages += sums[5]
			if msg > rec.maxMsg {
				rec.maxMsg = msg
			}
			if maskExchanged {
				rec.maskComms++
			}
		}

		// ---- Rotate frontiers: clear the old front rows (only set rows need
		// touching), then swap the matrices and the active-slot lists.
		for _, gs := range myGPUs {
			for _, u := range gs.inIDs {
				clear(gs.front.Row(int64(u)))
			}
			gs.front, gs.nxt = gs.nxt, gs.front
			gs.inIDs, gs.outIDs = gs.outIDs, gs.inIDs[:0]
		}
		if sums[12] > 0 {
			cancelled = true
			if rank == 0 {
				rec.cancelled = true
			}
			break
		}
		if sums[0] == 0 {
			break
		}
	}

	if e.outs != nil && !cancelled {
		e.finishSweep(rank, comm)
	}
}
