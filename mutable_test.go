package gcbfs

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gcbfs/internal/partition"
)

func mutableConfig() Config {
	cfg := DefaultConfig(Cluster{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 2})
	cfg.CollectParents = true
	return cfg
}

func TestMutableEpochChain(t *testing.T) {
	g := RMAT(10)
	m, err := NewMutableService(g, mutableConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != 1 {
		t.Fatalf("initial epoch %d, want 1", m.Epoch())
	}
	ctx := context.Background()
	src := Sources(g, 1, 1)[0]
	r1, err := m.Run(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Epoch != 1 {
		t.Fatalf("epoch-1 result stamped %d", r1.Epoch)
	}
	if err := m.Validate(r1); err != nil {
		t.Fatal(err)
	}

	d, err := SynthesizeDelta(m.Graph(), 0.01, "mixed", 9)
	if err != nil {
		t.Fatal(err)
	}
	up, err := m.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if up.Epoch != 2 || m.Epoch() != 2 {
		t.Fatalf("after ApplyDelta: update epoch %d, live epoch %d, want 2", up.Epoch, m.Epoch())
	}
	r2, err := m.Run(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Epoch != 2 {
		t.Fatalf("epoch-2 result stamped %d", r2.Epoch)
	}
	if err := m.Validate(r2); err != nil {
		t.Fatal(err)
	}
	// Stale-epoch results are rejected by Validate with a clear error.
	if err := m.Validate(r1); err == nil {
		t.Fatal("epoch-1 result validated against epoch-2 graph")
	}
}

// TestMutableCarriedDegrees chains 12 ApplyDeltas: every epoch's separation
// is built from out-degrees carried from the epoch before, never counted, and
// must equal the one a count over the epoch's edge list gives. RMAT keeps
// parallel edges, so some deletes drop several copies of a pair.
func TestMutableCarriedDegrees(t *testing.T) {
	g := RMAT(10)
	m, err := NewMutableService(g, mutableConfig())
	if err != nil {
		t.Fatal(err)
	}
	parallel := 0 // directed copies dropped beyond one per orientation
	for i := 0; i < 12; i++ {
		d, err := SynthesizeDelta(m.Graph(), 0.02, []string{"mixed", "insert", "delete"}[i%3], uint64(i)+1)
		if err != nil {
			t.Fatal(err)
		}
		before := m.Graph().el.M()
		if _, err := m.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		el := m.Graph().el
		parallel += int(before+2*int64(len(d.Inserts))-el.M()) - 2*len(d.Deletes)
		sep := m.Snapshot().sub.Sep
		if !slices.Equal(sep.OutDeg, el.OutDegrees()) {
			t.Fatalf("epoch %d: carried out-degrees differ from a count over the edge list", m.Epoch())
		}
		if want := partition.Separate(el, m.Threshold()); !slices.Equal(sep.DelegateGlobal, want.DelegateGlobal) {
			t.Fatalf("epoch %d: %d delegates, a fresh separation has %d", m.Epoch(), sep.D(), want.D())
		}
	}
	if parallel == 0 {
		t.Fatal("test setup: no delete dropped a parallel copy")
	}
}

func TestMutableRepairMatchesRecompute(t *testing.T) {
	g := RMAT(10)
	m, err := NewMutableService(g, mutableConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	src := Sources(g, 1, 1)[0]
	prior, err := m.Run(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	first := prior
	firstLevels := slices.Clone(prior.Levels)
	firstParents := slices.Clone(prior.Parents)

	for i, kind := range []string{"insert", "delete", "mixed"} {
		d, err := SynthesizeDelta(m.Graph(), 0.01, kind, uint64(10+i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		rep, err := m.Repair(ctx, prior, d)
		if err != nil {
			t.Fatal(err)
		}
		full, err := m.Run(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Epoch != full.Epoch {
			t.Fatalf("%s: repair epoch %d, recompute epoch %d", kind, rep.Epoch, full.Epoch)
		}
		if !slices.Equal(rep.Levels, full.Levels) {
			t.Fatalf("%s: repaired levels differ from recompute", kind)
		}
		if !slices.Equal(rep.Parents, full.Parents) {
			t.Fatalf("%s: repaired parents differ from recompute", kind)
		}
		if err := m.Validate(rep); err != nil {
			t.Fatalf("%s: repaired result failed validation: %v", kind, err)
		}
		prior = rep // chain: repair the repaired result across the next delta
	}

	// The epoch-1 result the caller still holds was never touched by the
	// three swaps or the repairs that read it.
	if !slices.Equal(first.Levels, firstLevels) || !slices.Equal(first.Parents, firstParents) {
		t.Fatal("epoch-1 result mutated by later epochs")
	}
}

func TestMutableRepairValidation(t *testing.T) {
	g := RMAT(9)
	m, err := NewMutableService(g, mutableConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	src := Sources(g, 1, 1)[0]
	d, err := SynthesizeDelta(g, 0.01, "mixed", 3)
	if err != nil {
		t.Fatal(err)
	}

	// No parents collected → rejected.
	noParents, err := m.Run(ctx, src, WithParents(false))
	if err != nil {
		t.Fatal(err)
	}
	prior, err := m.Run(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Repair(ctx, noParents, d); err == nil {
		t.Fatal("repair accepted a prior without parents")
	}
	// A prior whose arrays do not cover the graph → rejected before its
	// subtrees are walked.
	short := *prior
	short.Parents = short.Parents[:1]
	if _, err := m.Repair(ctx, &short, d); err == nil {
		t.Fatal("repair accepted a prior with parents missing")
	}
	// Correct prior works.
	if _, err := m.Repair(ctx, prior, d); err != nil {
		t.Fatal(err)
	}
	// Right epoch, wrong delta → rejected (the fingerprint check): a
	// mismatched delta would silently seed repair from the wrong affected
	// set and corrupt levels without any error.
	wrong, err := SynthesizeDelta(g, 0.01, "mixed", 99)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Repair(ctx, prior, wrong); err == nil {
		t.Fatal("repair accepted a delta other than the one ApplyDelta published")
	}
	if _, err := m.Repair(ctx, prior, &Delta{Inserts: d.Inserts}); err == nil {
		t.Fatal("repair accepted a truncated delta")
	}
	// Epoch gap → rejected.
	d2, err := SynthesizeDelta(m.Graph(), 0.01, "insert", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ApplyDelta(d2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Repair(ctx, prior, d2); err == nil {
		t.Fatal("repair accepted a prior two epochs behind")
	}
	// Unknown kind rejected.
	if _, err := SynthesizeDelta(g, 0.01, "scramble", 1); err == nil {
		t.Fatal("unknown delta kind accepted")
	}
	// Deleting a non-edge is an error and leaves the epoch unchanged.
	before := m.Epoch()
	if _, err := m.ApplyDelta(&Delta{Deletes: []Edge{{U: 0, V: 0}}}); err == nil {
		t.Fatal("self-loop delete accepted")
	}
	if m.Epoch() != before {
		t.Fatal("failed ApplyDelta advanced the epoch")
	}
}

// TestMutableConcurrentSwap drives Run, RunSweep and coalesced Runs from many
// goroutines while the main goroutine swaps epochs underneath them. Every
// result must be stamped with a plausible admission epoch (between the live
// epochs observed just before and just after the call), and results held
// from before a swap must be untouched by it. Run with -race.
func TestMutableConcurrentSwap(t *testing.T) {
	g := RMAT(9)
	cfg := mutableConfig()
	cfg.CoalesceQueries = true
	m, err := NewMutableService(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sources := Sources(g, 8, 7)

	// Pre-swap result, deep-copied, to check swap isolation at the end.
	pre, err := m.Run(ctx, sources[0], WithParents(true))
	if err != nil {
		t.Fatal(err)
	}
	preLevels := slices.Clone(pre.Levels)
	preParents := slices.Clone(pre.Parents)

	const swaps = 3
	var wg sync.WaitGroup
	var fail atomic.Value // first error message
	check := func(res *Result, lo, hi uint64, what string) {
		if res.Epoch < lo || res.Epoch > hi {
			fail.CompareAndSwap(nil, what+": result epoch outside admission window")
		}
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				src := sources[(w*12+i)%len(sources)]
				lo := m.Epoch()
				switch i % 3 {
				case 0: // coalesced Run (option-free → sweep admission queue)
					r, err := m.Run(ctx, src)
					if err != nil {
						fail.CompareAndSwap(nil, err.Error())
						return
					}
					check(r, lo, m.Epoch(), "coalesced Run")
				case 1: // direct Run (options bypass coalescing)
					r, err := m.Run(ctx, src, WithParents(true))
					if err != nil {
						fail.CompareAndSwap(nil, err.Error())
						return
					}
					check(r, lo, m.Epoch(), "Run")
				case 2: // multi-source sweep
					br, err := m.RunSweep(ctx, sources[:4])
					if err != nil {
						fail.CompareAndSwap(nil, err.Error())
						return
					}
					hi := m.Epoch()
					for _, r := range br.Results {
						check(r, lo, hi, "RunSweep")
					}
				}
			}
		}(w)
	}
	for s := 0; s < swaps; s++ {
		d, err := SynthesizeDelta(m.Graph(), 0.005, "mixed", uint64(20+s))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if msg := fail.Load(); msg != nil {
		t.Fatal(msg)
	}
	if m.Epoch() != 1+swaps {
		t.Fatalf("final epoch %d, want %d", m.Epoch(), 1+swaps)
	}
	if !slices.Equal(pre.Levels, preLevels) || !slices.Equal(pre.Parents, preParents) {
		t.Fatal("pre-swap result mutated by epoch swaps")
	}
	// The pinned snapshot keeps serving its epoch after swaps.
	snap := m.Snapshot()
	r, err := snap.Run(ctx, sources[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch != m.Epoch() {
		t.Fatalf("snapshot taken at epoch %d answered %d", m.Epoch(), r.Epoch)
	}
}

func TestMutableIncrementalSharing(t *testing.T) {
	g := RMAT(10)
	m, err := NewMutableService(g, mutableConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A tiny delta should leave at least one GPU's routed edge sequence
	// untouched on a 4-GPU layout; sharing is best-effort (threshold drift
	// can force a rebuild), so only assert the accounting is sane.
	d, err := SynthesizeDelta(g, 0.001, "insert", 5)
	if err != nil {
		t.Fatal(err)
	}
	up, err := m.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	gpus := mutableConfig().Cluster.GPUs()
	if up.SharedGPUs < 0 || up.SharedGPUs > gpus {
		t.Fatalf("SharedGPUs %d out of range [0,%d]", up.SharedGPUs, gpus)
	}
	if up.BuildSeconds < 0 {
		t.Fatalf("negative build time %v", up.BuildSeconds)
	}
}

// TestEpochGCTelemetry pins an epoch-1 snapshot across two ApplyDeltas and
// watches the epoch-chain GC stats: both superseded epochs count as retired,
// the pinned one keeps LiveEpochs elevated and ages OldestPinnedAge, and once
// the snapshot reference drops the runtime reclaims every retired epoch
// (observed through the finalizer-driven CollectedEpochs counter).
func TestEpochGCTelemetry(t *testing.T) {
	g := RMAT(10)
	m, err := NewMutableService(g, mutableConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.LiveEpochs != 1 || st.RetiredEpochs != 0 || st.CollectedEpochs != 0 || st.OldestPinnedAge != 0 {
		t.Fatalf("fresh service stats %+v, want one live epoch and zeros", st)
	}
	ctx := context.Background()
	src := Sources(g, 1, 1)[0]

	snap := m.Snapshot() // pin epoch 1
	for i := 0; i < 2; i++ {
		d, err := SynthesizeDelta(m.Graph(), 0.01, "mixed", uint64(21+i))
		if err != nil {
			t.Fatal(err)
		}
		up, err := m.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		if up.RetiredEpochs != int64(i+1) {
			t.Fatalf("after delta %d: update reports %d retired, want %d", i+1, up.RetiredEpochs, i+1)
		}
		if up.LiveEpochs < 2 {
			t.Fatalf("after delta %d: %d live epochs with a snapshot pinned, want >= 2", i+1, up.LiveEpochs)
		}
	}
	st := m.Stats()
	if st.RetiredEpochs != 2 {
		t.Fatalf("retired %d epochs, want 2", st.RetiredEpochs)
	}
	if st.LiveEpochs < 2 {
		t.Fatalf("%d live epochs while the epoch-1 snapshot is pinned, want >= 2", st.LiveEpochs)
	}
	if st.OldestPinnedAge <= 0 {
		t.Fatalf("OldestPinnedAge %v with a pinned retired epoch, want > 0", st.OldestPinnedAge)
	}
	// The pinned snapshot still answers against its own epoch.
	r, err := snap.Run(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch != 1 {
		t.Fatalf("pinned snapshot answered epoch %d, want 1", r.Epoch)
	}

	// Drop the pin: every retired epoch becomes unreachable and the runtime
	// reclaims it. Finalizers need GC cycles to run, so poll with a generous
	// deadline rather than asserting after one collection.
	snap = nil
	_ = snap
	deadline := time.Now().Add(30 * time.Second)
	for {
		runtime.GC()
		st = m.Stats()
		if st.CollectedEpochs == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retired epochs not collected: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.LiveEpochs != 1 {
		t.Fatalf("%d live epochs after collection, want 1 (the current epoch)", st.LiveEpochs)
	}
	if st.OldestPinnedAge != 0 {
		t.Fatalf("OldestPinnedAge %v with nothing pinned, want 0", st.OldestPinnedAge)
	}
}
