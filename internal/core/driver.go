package core

// The phase driver: how a traversal's ranks take their supersteps on the host.
//
// The paper drives each GPU from one CPU thread and meets the other ranks in
// two collectives per BSP iteration (§V-A). Parking and waking one goroutine
// per rank at each of those meetings cost more than a near-empty superstep
// computes, so a traversal is run as a fixed list of phases instead, split at
// the superstep's blocking points: one driver takes every rank through a phase
// before any rank starts the next, and the boundary between two phases is the
// rendezvous the ranks would have met at (mpi.World.Meet counts it). Nothing
// parks inside a phase: a rank's share of one reads only what other ranks
// wrote before the boundary — posts, mailbox messages sent in the previous
// phase, the driver's folds.
//
// A phase runs on the driver's goroutine, rank after rank, when the superstep
// is small, and is fanned out over graph.BuildWorkers() goroutines that pull
// ranks one at a time when it is large (driver.fan, decided from what every
// rank knows after the previous fold). Either way a phase computes the same
// bytes: ranks share nothing within one.
//
// Containment is per rank and phase: a contained fault (faultError) a rank
// raises ends its share of the phase, the phase still runs to its end on
// every other rank, and then the driver poisons the World (mpi.World.Abort)
// with the lowest faulting rank's error and stops. Which rank faulted first
// on the host does not decide the error.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gcbfs/internal/graph"
	"gcbfs/internal/mpi"
)

// phase names one step that every rank of a traversal takes before any rank
// takes the next.
type phase uint8

const (
	// The superstep loop's (run.go).
	phaseLocal  phase = iota // kernels, delegate proposal, posts
	phaseCommit              // delegate commit, then the exchange's first relay or all of it
	phaseRelay               // a later relay of the exchange, or its end
	// A repair's prologue (repair.go).
	phaseProbe     // preload, probe scan, the probe round's posts
	phaseProbeRead // the probe round's reads, the normal seed schedules
	phaseSeeds     // the delegate seed schedule, the per-level seed counts
)

// stepper is a traversal's side of the driver: rank's share of phase ph.
type stepper interface {
	step(ph phase, rank int)
}

// A superstep's phases fan out when its input normals, plus fanDelegate for
// each input delegate (a delegate's rows are scanned on every GPU), plus the
// edges the previous superstep scanned reach fanWork — all of it known alike
// to every rank after the previous fold. Below that, waking the worker
// goroutines costs more than the ranks' shares of a phase take together;
// measured per superstep on all five host workloads (CHANGES.md). A repair's
// prologue, whose preload reads every vertex, fans out from fanWork vertices.
const (
	fanWork     = 8192
	fanDelegate = 1024
)

// driver runs one traversal's phases over the ranks of its World.
type driver struct {
	world *mpi.World
	// workers is graph.BuildWorkers(), read once per traversal; fan is whether
	// the phases in flight fan out over them.
	workers int
	fan     bool
	// errs[r] is rank r's contained fault in the phase in flight; faulted says
	// some entry is set.
	errs    []error
	faulted atomic.Bool
	// The fanned-out phase in flight, s's phase ph, whose ranks the workers
	// pull through next. live worker goroutines wait on wake, started on the
	// traversal's first fanned-out phase and stopped at its end: true runs
	// the phase in flight, false ends the worker.
	s    stepper
	ph   phase
	next atomic.Int64
	wake chan bool
	live int
	wg   sync.WaitGroup
}

// reset binds the driver to a traversal on world, armed by the caller.
func (d *driver) reset(world *mpi.World) {
	d.world = world
	d.workers = graph.BuildWorkers()
	d.fan = false
	if n := world.Size(); len(d.errs) != n {
		d.errs = make([]error, n)
	}
	clear(d.errs)
	d.faulted.Store(false)
}

// run takes every rank through phase ph of s and returns the fault that
// aborted the World when a rank raised one.
func (d *driver) run(s stepper, ph phase) error {
	d.s, d.ph = s, ph
	if w := min(d.workers, d.world.Size()); d.fan && w > 1 {
		if cap(d.wake) < w-1 {
			d.wake = make(chan bool, w-1)
		}
		for ; d.live < w-1; d.live++ {
			go d.work()
		}
		d.next.Store(0)
		d.wg.Add(w - 1)
		for range w - 1 {
			d.wake <- true
		}
		d.drain()
		d.wg.Wait()
	} else {
		for r := range d.world.Size() {
			d.stepRank(r)
		}
	}
	d.s = nil
	if !d.faulted.Load() {
		return nil
	}
	for r, err := range d.errs {
		if err != nil {
			d.world.Abort(fmt.Errorf("core: rank %d: %w", r, err))
			break
		}
	}
	return d.world.Aborted()
}

// stop ends the traversal's worker goroutines.
func (d *driver) stop() {
	for ; d.live > 0; d.live-- {
		d.wake <- false
	}
}

// work is a worker goroutine: it takes ranks through every fanned-out phase
// it is woken for until it is stopped.
func (d *driver) work() {
	for <-d.wake {
		d.drain()
		d.wg.Done()
	}
}

// drain steps ranks through the phase in flight until none is left.
func (d *driver) drain() {
	n := int64(d.world.Size())
	for {
		r := d.next.Add(1) - 1
		if r >= n {
			return
		}
		d.stepRank(int(r))
	}
}

func (d *driver) stepRank(rank int) {
	defer d.contain(rank)
	d.s.step(d.ph, rank)
}

// contain is the recover boundary of one rank's share of a phase: a contained
// fault is kept for run, anything else re-panics.
func (d *driver) contain(rank int) {
	v := recover()
	if v == nil {
		return
	}
	err := faultError(v)
	if err == nil {
		panic(v)
	}
	d.errs[rank] = err
	d.faulted.Store(true)
}
