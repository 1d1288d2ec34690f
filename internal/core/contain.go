package core

// Fault containment: how a message tag names the injection site its payload
// faults key on, how a World is armed with an injector, and how a recovered
// panic is classified. The boundary itself is the phase driver's, per rank and
// phase (driver.contain): every rank-parallel step of the library — the
// superstep loop, a repair's prologue, the tree finishers and the dense
// analytics (Drive) — runs as driven phases, so there is no other.
//
// A corrupt payload (organic or injected) surfaces as a panic deep in a rank's
// work — the decode sits under several layers of exchange machinery with no
// error return path, exactly like a CUDA kernel fault on the real machine.
// The boundary recovers the panic and classifies it; once the phase has run to
// its end on every other rank, the driver poisons the World (mpi.World.Abort)
// with the lowest faulting rank's error and runs no further phase. The caller
// marks the Session poisoned (release drops it instead of recycling it) and
// returns the typed error — never a partial result.
//
// Classification is deliberately narrow: only errors wrapping wire.ErrCorrupt
// (payload corruption the codecs detected) or faults.ErrInjected (manufactured
// by the chaos machinery) are contained. Anything else — an index out of
// range, a violated invariant — is a genuine bug and re-panics unchanged.

import (
	"errors"

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
