package experiments

import (
	"context"
	"errors"
	"fmt"

	"gcbfs/internal/core"
	"gcbfs/internal/faults"
	"gcbfs/internal/metrics"
	"gcbfs/internal/partition"
	"gcbfs/internal/wire"
)

// chaosRetry mirrors the service-level retry policy at the core layer (the
// experiments package cannot import the root package): contained faults
// re-execute with a re-keyed injector, falling back to the all-pairs
// exchange — the degraded profile — after degradeAfter failures. Any error
// that is not a typed fault chain is a containment bug and fails the cell.
func chaosRetry(pl *core.Plan, src int64, inj *faults.Injector, maxAttempts, degradeAfter int) (r *metrics.RunResult, attempts int, degraded bool, err error) {
	var ov core.Overrides
	for attempts = 1; ; attempts++ {
		r, err = pl.Run(context.Background(), src, ov)
		if err == nil {
			return r, attempts, degraded, nil
		}
		if !errors.Is(err, wire.ErrCorrupt) && !errors.Is(err, faults.ErrInjected) {
			return nil, attempts, degraded, fmt.Errorf("untyped failure escaped containment: %w", err)
		}
		if attempts >= maxAttempts {
			return nil, attempts, degraded, err
		}
		inj.NextAttempt()
		if attempts >= degradeAfter {
			degraded = true
			allPairs := core.ExchangeAllPairs
			ov = core.Overrides{Exchange: &allPairs}
		}
	}
}

// Cmp8Chaos is the chaos ablation: deterministic fault injection
// (internal/faults) swept over fault kind × rate × exchange strategy ×
// compression (the default fixed-width packing and the adaptive codec), with
// the containment + retry + degradation stack recovering each cell. Every
// cell asserts the fault-tolerance contract: an injected fault either
// surfaces as a typed error (wire.ErrCorrupt / faults.ErrInjected chains —
// never a bare panic, never a partial result) or the retried query succeeds
// with levels AND parents bit-identical to the fault-free reference. Stall
// faults never fail a run — they only add simulated time — and their results
// must also be bit-identical.
func Cmp8Chaos(p Params) (*Table, error) {
	scale := p.pick(12, 11)
	rates := []float64{0.02, 0.05, 0.1, 0.3, 1}
	const maxAttempts = 6
	if p.Quick {
		rates = []float64{0.05, 0.3, 1}
	}
	const degradeAfter = 2
	// Both strategies, each under the default fixed-width packing and under
	// the adaptive codec: every message is checksummed either way.
	type config struct {
		x    core.Exchange
		mode wire.Mode
	}
	configs := []config{
		{core.ExchangeAllPairs, wire.ModeOff}, {core.ExchangeAllPairs, wire.ModeAdaptive},
		{core.ExchangeButterfly, wire.ModeOff}, {core.ExchangeButterfly, wire.ModeAdaptive},
	}
	shape := core.ClusterShape{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2}

	el := rmatGraph(scale)
	th := suggestTH(el, 8)
	src := pickSources(el.OutDegrees(), 1, p.seed())[0]
	sep := partition.Separate(el, th)
	sub, err := partition.Distribute(el, sep, shape.PartitionConfig())
	if err != nil {
		return nil, err
	}
	baseOpts := func(x core.Exchange, mode wire.Mode) core.Options {
		o := core.DefaultOptions()
		o.Exchange = x
		o.CollectLevels = true
		o.CollectParents = true
		o.Compression = mode
		return o
	}

	t := &Table{
		ID:    "cmp8",
		Title: "chaos ablation: fault kind × rate × strategy × compression under contain/retry/degrade",
		Paper: "beyond the paper — fault-tolerant execution of the §V exchange stack",
		Headers: []string{"kind", "rate", "strategy", "compression", "injected", "attempts",
			"degraded", "outcome", "identical"},
		Notes: []string{
			"outcome recovered: the retried query succeeded; typed-error: the attempt budget ran out and the caller saw a wire.ErrCorrupt/faults.ErrInjected chain",
			"every recovered cell asserted bit-identical in levels AND parents to the fault-free reference",
			"stall cells asserted fault-free results with simulated time no less than the reference",
			"untyped errors, bare panics, or partial results fail the experiment",
			fmt.Sprintf("retry mirrors the service policy: %d attempts, degraded profile (all-pairs exchange) after %d failures", maxAttempts, degradeAfter),
		},
	}

	// Fault-free references, one per configuration.
	refs := map[config]*metrics.RunResult{}
	for _, cfg := range configs {
		pl, err := core.NewPlan(sub, shape, baseOpts(cfg.x, cfg.mode))
		if err != nil {
			return nil, err
		}
		r, err := pl.Run(context.Background(), src, core.Overrides{})
		if err != nil {
			return nil, fmt.Errorf("cmp8: fault-free reference (%v, %v): %w", cfg.x, cfg.mode, err)
		}
		refs[cfg] = r
	}

	seed := uint64(p.seed())
	recoveredAfterRetry := 0
	for _, kind := range faults.Kinds() {
		for _, rate := range rates {
			for _, cfg := range configs {
				ref := refs[cfg]
				inj := faults.New(seed, kind, rate)
				opts := baseOpts(cfg.x, cfg.mode)
				opts.Inject = inj
				pl, err := core.NewPlan(sub, shape, opts)
				if err != nil {
					return nil, err
				}
				r, attempts, degraded, err := chaosRetry(pl, src, inj, maxAttempts, degradeAfter)
				cell := fmt.Sprintf("kind=%s rate=%g strategy=%v compression=%v", kind, rate, cfg.x, cfg.mode)
				outcome, identical := "recovered", "-"
				switch {
				case err != nil && (errors.Is(err, wire.ErrCorrupt) || errors.Is(err, faults.ErrInjected)):
					outcome = "typed-error"
				case err != nil:
					return nil, fmt.Errorf("cmp8: %s: %w", cell, err)
				default:
					if len(r.Levels) != len(ref.Levels) || len(r.Parents) != len(ref.Parents) {
						return nil, fmt.Errorf("cmp8: %s: result shape differs from reference", cell)
					}
					for v := range r.Levels {
						if r.Levels[v] != ref.Levels[v] {
							return nil, fmt.Errorf("cmp8: %s: vertex %d level %d, reference %d — recovery was silently wrong",
								cell, v, r.Levels[v], ref.Levels[v])
						}
						if r.Parents[v] != ref.Parents[v] {
							return nil, fmt.Errorf("cmp8: %s: vertex %d parent %d, reference %d — recovery was silently wrong",
								cell, v, r.Parents[v], ref.Parents[v])
						}
					}
					identical = "yes"
					if attempts > 1 {
						recoveredAfterRetry++
					}
				}
				if kind == faults.KindStall {
					if outcome != "recovered" || attempts != 1 {
						return nil, fmt.Errorf("cmp8: %s: stall must never fail a run (outcome %s, %d attempts)", cell, outcome, attempts)
					}
					if inj.Injected() > 0 && r.SimSeconds < ref.SimSeconds {
						return nil, fmt.Errorf("cmp8: %s: stalled run faster than reference (%.6f < %.6f s)",
							cell, r.SimSeconds, ref.SimSeconds)
					}
				}
				// A payload mutation or crash that fires must fail its
				// attempt — a single-attempt success with injections means a
				// fault slipped past detection.
				if kind != faults.KindStall && inj.Injected() > 0 && attempts == 1 {
					return nil, fmt.Errorf("cmp8: %s: fault fired on the only attempt yet the run succeeded undetected", cell)
				}
				t.Rows = append(t.Rows, []string{
					kind.String(), fmt.Sprintf("%g", rate), cfg.x.String(), cfg.mode.String(),
					i64(inj.Injected()), i64(int64(attempts)),
					fmt.Sprintf("%v", degraded), outcome, identical,
				})
			}
		}
	}
	if recoveredAfterRetry == 0 {
		return nil, fmt.Errorf("cmp8: no cell recovered after a retry — the retry path was never exercised end to end")
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d cells recovered after at least one retry (fault fired, was contained, and the re-run succeeded bit-identically)", recoveredAfterRetry))
	return t, nil
}
