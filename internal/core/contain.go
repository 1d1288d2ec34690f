package core

// Fault containment: the launcher every engine starts its per-rank
// goroutines through, the boundary they run under, and the helpers that
// classify what it recovers.
//
// A corrupt payload (organic or injected) surfaces as a panic deep in a rank
// goroutine — the decode sits under several layers of exchange machinery with
// no error return path, exactly like a CUDA kernel fault on the real machine.
// The containment boundary recovers the panic, classifies it, and poisons the
// session's World (mpi.World.Abort) so every sibling rank blocked in a
// collective or receive unwinds within the same BSP iteration. The main
// goroutine then observes World.Aborted, marks the Session poisoned (release
// drops it instead of recycling it) and returns the typed error — never a
// partial result.
//
// Classification is deliberately narrow: only errors wrapping wire.ErrCorrupt
// (payload corruption the codecs detected) or faults.ErrInjected (manufactured
// by the chaos machinery) are contained. Anything else — an index out of
// range, a violated invariant — is a genuine bug and re-panics unchanged.

import (
	"errors"
	"fmt"
	"sync"

	"gcbfs/internal/faults"
	"gcbfs/internal/mpi"
	"gcbfs/internal/wire"
)

// tagSite recovers the (iteration, injection site) a message tag encodes, so
// payload faults key on the same coordinates as boundary faults. The tag
// spaces are disjoint by construction: parent resolution at parentTagBase
// (1<<30) and above, a repair's probe round at probeTag (1<<29, the all-pairs
// hop tag of superstep probeIter, so its faults key on iteration 0 of the
// probe site), and everything below is the iteration-keyed hop space (hopTag).
func tagSite(tag int) (int, string) {
	switch {
	case tag >= parentTagBase:
		return tag - parentTagBase, faults.SiteParents
	case tag >= probeTag:
		return tag - probeTag, faults.SiteProbe
	default:
		return tag / 64, faults.SiteExchange
	}
}

// sweepTagSite is tagSite with the exchange-space site renamed — a sweep's
// records ride the same exchangers and hop-tag space as a run's ids but are a
// distinct injection site.
func sweepTagSite(tag int) (int, string) {
	iter, site := tagSite(tag)
	if site == faults.SiteExchange {
		site = faults.SiteSweep
	}
	return iter, site
}

// armWorld installs (or clears) the fault injector's payload hook on a
// communicator. The hook recovers (iteration, site) from the message tag so
// injected payload faults key exactly like boundary faults.
func armWorld(w *mpi.World, in *faults.Injector, site func(tag int) (int, string)) {
	if in == nil {
		w.SetSendHook(nil)
		return
	}
	w.SetSendHook(func(src, dst, tag int, data []byte) []byte {
		iter, s := site(tag)
		return in.Payload(src, iter, s, data)
	})
}

// RunRanks is the one rank launcher: every engine (BFS and repair, the
// sweep, connected components, PageRank) starts its per-rank goroutines
// here. It arms world with the injector — site maps a message tag to the
// (iteration, injection site) its payload faults key on — runs body once per
// rank under the containment boundary, waits for all of them, and returns
// the typed fault that aborted the world, nil when every rank ran to the
// end. After an error the state the ranks were mutating is undefined.
func RunRanks(world *mpi.World, in *faults.Injector, site func(tag int) (int, string), body func(rank int, comm *mpi.Comm)) error {
	armWorld(world, in, site)
	var wg sync.WaitGroup
	for r := 0; r < world.Size(); r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer containRank(world, rank)
			body(rank, world.Rank(rank))
		}(r)
	}
	wg.Wait()
	return world.Aborted()
}

// faultError classifies a recovered panic value: it returns the error when
// the value is a contained fault (corrupt payload or injected failure), nil
// for anything else.
func faultError(v any) error {
	err, ok := v.(error)
	if !ok {
		return nil
	}
	if errors.Is(err, wire.ErrCorrupt) || errors.Is(err, faults.ErrInjected) {
		return err
	}
	return nil
}

// containRank is the recover boundary RunRanks defers in every rank goroutine.
// A contained fault poisons the world, aborting every sibling rank; the
// secondary abort panics those siblings throw while unwinding are swallowed
// (the first fault already carries the error); everything else re-panics.
func containRank(world *mpi.World, rank int) {
	v := recover()
	if v == nil {
		return
	}
	if _, ok := mpi.AbortError(v); ok {
		return
	}
	if err := faultError(v); err != nil {
		world.Abort(fmt.Errorf("core: rank %d: %w", rank, err))
		return
	}
	panic(v)
}
