package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"gcbfs"
	"gcbfs/internal/metrics"
)

// limits bounds one pass. The smoke test sets Ops to run a fixed handful of
// ops whatever the clock says; the command runs for Seconds. Set-up repeats
// SetupReps times at least, and on until SetupSeconds are spent or
// setupRepsMax is reached, so that a cheap set-up is timed many times.
type limits struct {
	Seconds      float64
	Ops          int
	SetupReps    int
	SetupSeconds float64
}

const setupRepsMax = 31

// done reports whether a window that has run ops ops and spent the given
// seconds is complete: at least prefix ops, then until the time is up.
func (l limits) done(ops, prefix int, spent float64) bool {
	if l.Ops > 0 {
		return ops >= l.Ops
	}
	return ops >= prefix && spent >= l.Seconds
}

// facade drives the public gcbfs API the way a caller would: closed loop,
// one client goroutine.
type facade struct {
	w    workload
	in   *inputs
	seed uint64
	ctx  context.Context

	svc *gcbfs.Service
	mut *gcbfs.MutableService
	// held are the results the mutable workload repairs across every delta;
	// cycle numbers the deltas.
	held  []*gcbfs.Result
	cycle int
}

func newFacade(w workload, in *inputs, seed uint64) *facade {
	return &facade{w: w, in: in, seed: seed, ctx: context.Background()}
}

// setup builds the service and returns the wall time of the constructor.
func (f *facade) setup() (float64, error) {
	var err error
	t0 := time.Now()
	if f.w.Kind == opRepair {
		f.mut, err = gcbfs.NewMutableService(f.in.g, f.w.config())
	} else {
		f.svc, err = gcbfs.NewService(f.in.g, f.w.config())
	}
	return time.Since(t0).Seconds(), err
}

// prime fills what the window needs before its first op; on the mutable
// workload that is the batch of held results, run through the pooled
// concurrent path. It returns the batch's wall time (0 elsewhere).
func (f *facade) prime() (float64, error) {
	if f.w.Kind != opRepair {
		return 0, nil
	}
	t0 := time.Now()
	br, err := f.mut.RunBatch(f.ctx, f.in.pool, gcbfs.BatchOptions{Parallelism: 2})
	if err != nil {
		return 0, err
	}
	f.held = br.Results
	return time.Since(t0).Seconds(), nil
}

// opInput is what an op is called with, chosen outside every timer.
type opInput struct {
	sources []int64
	delta   *gcbfs.Delta
}

// opResult is what the timed calls of one op returned.
type opResult struct {
	answers []*gcbfs.Result
	// calls are the wall times of the caller-visible query calls (Run,
	// RunSweep, Repair); apply is ApplyDelta's; busy is everything timed.
	calls []float64
	apply float64
	busy  float64
	err   error
}

// expected is the number of answers one op owes.
func (f *facade) expected() int {
	switch f.w.Kind {
	case opSweep:
		return sweepWidth
	case opRepair:
		return len(f.in.pool)
	}
	return 1
}

// next picks op i's input: the next source(s) in rotation, or the next delta.
func (f *facade) next(i int) opInput {
	switch f.w.Kind {
	case opSweep:
		return opInput{sources: f.in.rotate(i*sweepWidth, sweepWidth)}
	case opRepair:
		d := f.in.chk.synthesizeDelta(deltaFrac, derive(f.seed, deltaStream+uint64(f.cycle)))
		f.cycle++
		return opInput{delta: d}
	}
	return opInput{sources: f.in.rotate(i, 1)}
}

// do makes the timed calls of one op and nothing else.
func (f *facade) do(in opInput) opResult {
	var res opResult
	switch f.w.Kind {
	case opRun:
		t0 := time.Now()
		r, err := f.svc.Run(f.ctx, in.sources[0])
		dt := time.Since(t0).Seconds()
		res = opResult{answers: []*gcbfs.Result{r}, calls: []float64{dt}, busy: dt, err: err}
	case opSweep:
		t0 := time.Now()
		br, err := f.svc.RunSweep(f.ctx, in.sources)
		dt := time.Since(t0).Seconds()
		res = opResult{calls: []float64{dt}, busy: dt, err: err}
		if err == nil {
			res.answers = br.Results
		}
	case opRepair:
		t0 := time.Now()
		_, err := f.mut.ApplyDelta(in.delta)
		res.apply = time.Since(t0).Seconds()
		res.busy = res.apply
		if err != nil {
			res.err = err
			return res
		}
		for j, prior := range f.held {
			t0 := time.Now()
			r, err := f.mut.Repair(f.ctx, prior, in.delta)
			dt := time.Since(t0).Seconds()
			res.busy += dt
			if err != nil {
				res.err = err
				return res
			}
			res.calls = append(res.calls, dt)
			res.answers = append(res.answers, r)
			f.held[j] = r
		}
	}
	return res
}

// window is what one timed window measured.
type window struct {
	calls   []float64
	applies []float64
	busy    float64
	ops     int
	// busies holds the timed seconds of every op and callOp the op each entry
	// of calls belongs to; readings are the yardstick's, one before every op
	// and one after the last (untraced pass only).
	busies   []float64
	callOp   []int
	readings []float64
	// rates are the modelled GTEPS of the answers of the first Prefix ops.
	rates []float64
}

// treeEvery is the fixed sample of ops whose first answer also has its
// parents checked against the Graph500 tree rules.
const treeEvery = 8

// step runs op number op of a window: it picks the op's input, makes the
// timed calls (between before and after, when set: the traced pass reads
// allocation counters there), moves the checker to the new epoch when the op
// mutated the graph, and checks every answer outside the timers, counting
// into rec and win. It returns the input so the traced pass can replay the
// same op on the layers.
func (f *facade) step(rec *record, win *window, op int, before, after func()) (opInput, error) {
	in := f.next(op)
	if before != nil {
		before()
	}
	res := f.do(in)
	if after != nil {
		after()
	}
	for range res.calls {
		win.callOp = append(win.callOp, win.ops)
	}
	win.ops++
	win.busy += res.busy
	win.busies = append(win.busies, res.busy)
	win.calls = append(win.calls, res.calls...)
	rec.Ops++
	rec.Attempted += f.expected()
	if in.delta != nil {
		// The mutable chain cannot continue past a lost epoch.
		if res.err != nil {
			return in, fmt.Errorf("op %d: %w", op, res.err)
		}
		win.applies = append(win.applies, res.apply)
		if err := f.in.chk.advance(batchOf(in.delta)); err != nil {
			return in, fmt.Errorf("op %d reference graph: %w", op, err)
		}
	}
	if res.err != nil {
		// An op that errors owes all its answers.
		for i := 0; i < f.expected(); i++ {
			rec.fail(fmt.Errorf("op %d: %w", op, res.err))
		}
		return in, nil
	}
	for i, r := range res.answers {
		if err := f.in.chk.check(r.Source, r.Levels, r.Parents, i == 0 && op%treeEvery == 0); err != nil {
			rec.fail(fmt.Errorf("op %d source %d: %w", op, r.Source, err))
		}
		if op < f.w.Prefix {
			win.rates = append(win.rates, r.GTEPS)
		}
	}
	return in, nil
}

// run executes one timed window of whole ops, with a yardstick reading
// before each op's timed calls and one after the last's. The window is
// lim.Seconds of wall time (readings and answer checks included), so a run
// is as long on a slow host as on a fast one.
func (f *facade) run(rec *record, lim limits, y *yardstick) (window, error) {
	var win window
	read := func() { win.readings = append(win.readings, y.reading()) }
	start := time.Now()
	for op := 0; !lim.done(op, f.w.Prefix, time.Since(start).Seconds()); op++ {
		if _, err := f.step(rec, &win, op, read, nil); err != nil {
			return win, err
		}
	}
	read()
	return win, nil
}

// vsSerial turns the window's wall times into multiples of the serial BFS
// the yardstick read beside them (the mean of the readings on either side of
// the op). It returns, per caller-visible call, its time per answer over the
// serial BFS's, and per round (one pass over the source pool, the same work
// every round) the answers given per serial-BFS time of timed calls.
func (f *facade) vsSerial(win window) (perCall, perRound []float64) {
	unit := func(op int) float64 { return (win.readings[op] + win.readings[op+1]) / 2 }
	each := 1.0 // answers per call
	if f.w.Kind == opSweep {
		each = sweepWidth
	}
	for k, c := range win.calls {
		perCall = append(perCall, c/unit(win.callOp[k])/each)
	}
	round := max(len(f.in.pool)/f.expected(), 1)
	if win.ops < round {
		round = win.ops
	}
	for lo := 0; lo+round <= win.ops; lo += round {
		spent := 0.0
		for op := lo; op < lo+round; op++ {
			spent += win.busies[op] / unit(op)
		}
		perRound = append(perRound, float64(f.expected()*round)/spent)
	}
	return perCall, perRound
}

// warm runs the workload's warm-up ops unrecorded: they fill the session
// pool and the per-rank arenas.
func (f *facade) warm() error {
	var discard record
	var win window
	for op := 0; op < f.w.Warm; op++ {
		if _, err := f.step(&discard, &win, op, nil, nil); err != nil {
			return err
		}
	}
	if discard.Failed > 0 {
		return fmt.Errorf("warm-up: %s", discard.FirstFailure)
	}
	return nil
}

// heapMiB returns the live heap after a full collection. Two cycles, so
// that epochs retired behind finalizers are gone too.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// runUntraced is the pass every end-to-end number comes from: inputs, timed
// set-up, warm-up, one timed window through the public API, no spans.
func runUntraced(w workload, seed uint64, lim limits) (*record, error) {
	rec := newRecord(w, seed, "untraced", lim.Seconds)
	in, err := makeInputs(w, seed)
	if err != nil {
		return nil, err
	}
	f := newFacade(w, in, seed)
	y, err := newYardstick(in.chk.el, in.pool[0], in.chk.reference(in.pool[0], nil))
	if err != nil {
		return nil, err
	}

	// Set-up runs several times; the last service built is the one the
	// window uses, the earlier ones are garbage. The fastest repetition is
	// reported: the contract wants seconds, which no yardstick can steady, and
	// whatever the host adds to a repetition it never takes away, so of all
	// of them the minimum moved least between sets of runs (README.md).
	heap0 := heapMiB()
	var setups []float64
	for i, spent := 0, 0.0; i < max(lim.SetupReps, 1) || (spent < lim.SetupSeconds && i < setupRepsMax); i++ {
		runtime.GC() // the previous repetition's service, not this one's debt
		s, err := f.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s)
		spent += s
	}
	if _, err := f.prime(); err != nil {
		return nil, fmt.Errorf("prime: %w", err)
	}
	if err := f.warm(); err != nil {
		return nil, err
	}
	runtime.GC()
	win, err := f.run(rec, lim, y)
	if err != nil {
		return nil, err
	}
	heap1 := heapMiB()
	runtime.KeepAlive(f) // the service is what heap1 measures
	runtime.KeepAlive(y) // and the yardstick is in heap0 too

	perCall, perRound := f.vsSerial(win)
	rec.setMetrics(endToEnd, map[string]float64{
		"setup_s":             slices.Min(setups),
		"speedup_vs_serial":   median(perRound),
		"query_vs_serial_p50": median(perCall),
		"model_gteps":         metrics.GeoMean(win.rates),
		// Heap the service retains: live heap after the window minus live
		// heap before set-up (inputs and references are in both).
		"heap_mb": heap1 - heap0,
	})
	rec.Timings["setup_s"] = summarize(setups)
	rec.Timings["query_s"] = summarize(win.calls)
	if len(win.applies) > 0 {
		rec.Timings["gcbfs.apply_delta_s"] = summarize(win.applies)
	}
	// The same window on the wall clock alone: what a caller waits on this
	// host today, too unsteady from run to run to carry a bound.
	qps := ratio(float64(rec.Attempted-rec.Failed), win.busy)
	rec.Info["queries_per_s"] = value{qps, "1/s"}
	rec.Info["query_s_p50"] = value{median(win.calls), "s"}
	rec.Info["yardstick_s_p50"] = value{median(win.readings), "s"}
	rec.Timings["yardstick_s"] = summarize(win.readings)
	rec.Info["host_mteps"] = value{qps * float64(in.g.NumEdges()) / 2 / 1e6, "MTEPS"}
	rec.Info["window_busy_s"] = value{win.busy, "s"}
	// p95 needs ten samples beyond it.
	if len(win.calls) >= 200 {
		rec.Info["gcbfs.query_s_p95"] = value{percentile(win.calls, 95), "s"}
	}
	return rec, nil
}
