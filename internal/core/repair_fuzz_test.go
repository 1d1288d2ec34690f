package core

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"gcbfs/internal/delta"
	"gcbfs/internal/graph"
	"gcbfs/internal/metrics"
	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
	"gcbfs/internal/wire"
)

// The oracle's draw tables: a fuzz input is one index into each (modulo its
// length), a generator seed and a source rank.
var (
	chainShapes = []ClusterShape{
		{1, 1, 1}, {1, 1, 2}, {1, 1, 4}, {2, 1, 1}, {3, 1, 2}, {1, 2, 2}, {5, 1, 1}, {2, 2, 2}, {3, 1, 4},
	}
	chainExchanges = []Exchange{ExchangeAllPairs, ExchangeButterfly, ExchangeHybrid}
	chainModes     = []wire.Mode{wire.ModeOff, wire.ModeAdaptive}
	// Thresholds: every vertex with an edge a delegate, the 4n/p rule (-1),
	// two fixed ones that straddle an RMAT graph's median degree, and none.
	chainThresholds = []int64{0, -1, 8, 32, 1 << 40}
	chainFracs      = []float64{0.001, 0.005, 0.02, 0.05, 0.2}
	// Deltas: the three synthesized kinds, then hand-built ones that reach
	// the corners of the wave's seeding. A builder reports whether the graph
	// and prior let it build what its name says.
	chainDeltas = []struct {
		name  string
		build func(c *chainDraw) (*delta.Batch, bool)
	}{
		{"insert", synthesized(delta.KindInsert)},
		{"delete", synthesized(delta.KindDelete)},
		{"mixed", synthesized(delta.KindMixed)},
		{"hub shortcut", hubShortcut},
		{"insert between invalid", insertBetweenInvalid},
		{"lowered non-improving insert", loweredNonImproving},
		{"whole-graph invalidation", wholeGraphInvalidation},
		{"delegate read off rank 0", delegateReadOffRank},
	}
)

// chainDraw is what a delta builder may read: the epoch's graph, its
// adjacency and degree separation, the prior outcome on it, the draw's delta
// size and a generator seeded for this epoch.
type chainDraw struct {
	el     *graph.EdgeList
	csr    *graph.CSR
	sep    *partition.Separation
	cfg    partition.Config
	th     int64
	prior  *metrics.RunResult
	source int64
	frac   float64
	seed   uint64
	rng    *rand.Rand
}

func synthesized(k delta.Kind) func(c *chainDraw) (*delta.Batch, bool) {
	return func(c *chainDraw) (*delta.Batch, bool) { return delta.Synthesize(c.el, c.frac, k, c.seed), true }
}

// adjacent reports whether u and v share an edge.
func (c *chainDraw) adjacent(u, v int64) bool { return slices.Contains(c.csr.Neighbors(u), v) }

// hubShortcut inserts edges from the highest-degree reached vertex to up to
// three vertices at least two levels below it: inserts that shorten a path
// from a hub, which seed the hub.
func hubShortcut(c *chainDraw) (*delta.Batch, bool) {
	levels := c.prior.Levels
	hub := int64(-1)
	for v, l := range levels {
		if l >= 0 && (hub < 0 || c.sep.OutDeg[v] > c.sep.OutDeg[hub]) {
			hub = int64(v)
		}
	}
	b := &delta.Batch{}
	for _, v := range c.rng.Perm(len(levels)) {
		if len(b.Inserts) == 3 {
			break
		}
		if levels[v] >= levels[hub]+2 && !c.adjacent(hub, int64(v)) {
			b.Inserts = append(b.Inserts, graph.Edge{U: hub, V: int64(v)})
		}
	}
	return b, len(b.Inserts) > 0
}

// insertBetweenInvalid deletes a tree edge whose subtree holds two vertices
// that share no edge, and inserts that edge: an insert whose endpoints are
// both invalidated, which seeds neither.
func insertBetweenInvalid(c *chainDraw) (*delta.Batch, bool) {
	levels, parents := c.prior.Levels, c.prior.Parents
	for tries, v := range c.rng.Perm(len(levels)) {
		if tries == 64 {
			break
		}
		if levels[v] < 1 {
			continue
		}
		cut := graph.Edge{U: parents[v], V: int64(v)}
		invalid := delta.Invalidated(levels, parents, &delta.Batch{Deletes: []graph.Edge{cut}})
		var sub []int64
		for u, bad := range invalid {
			if bad {
				sub = append(sub, int64(u))
			}
		}
		for i, a := range sub {
			for _, b := range sub[i+1:] {
				if !c.adjacent(a, b) {
					return &delta.Batch{Deletes: []graph.Edge{cut}, Inserts: []graph.Edge{{U: a, V: b}}}, true
				}
			}
		}
	}
	return &delta.Batch{}, false
}

// loweredNonImproving inserts {u, w} between two vertices of one level ≥ 3,
// which shortens nothing, and {source, u}, which lowers u to 1 and, through
// the first insert, w to 2.
func loweredNonImproving(c *chainDraw) (*delta.Batch, bool) {
	levels := c.prior.Levels
	perm := c.rng.Perm(len(levels))
	for _, u := range perm {
		if levels[u] < 3 {
			continue
		}
		for _, w := range perm {
			if w != u && levels[w] == levels[u] && !c.adjacent(int64(u), int64(w)) {
				return &delta.Batch{Inserts: []graph.Edge{{U: int64(u), V: int64(w)}, {U: c.source, V: int64(u)}}}, true
			}
		}
	}
	return &delta.Batch{}, false
}

// wholeGraphInvalidation deletes every edge of the source and inserts up to
// three edges from it to vertices it did not reach directly: every vertex
// but the root is invalidated, and the inserts' far ends take level 1 from
// the root through the probe.
func wholeGraphInvalidation(c *chainDraw) (*delta.Batch, bool) {
	b := &delta.Batch{}
	nbrs := slices.Clone(c.csr.Neighbors(c.source))
	slices.Sort(nbrs)
	for _, v := range slices.Compact(nbrs) {
		if v != c.source {
			b.Deletes = append(b.Deletes, graph.Edge{U: c.source, V: v})
		}
	}
	for _, v := range c.rng.Perm(int(c.el.N)) {
		if len(b.Inserts) == 3 {
			break
		}
		if int64(v) != c.source && !c.adjacent(c.source, int64(v)) {
			b.Inserts = append(b.Inserts, graph.Edge{U: c.source, V: int64(v)})
		}
	}
	return b, len(b.Deletes) > 0 && len(b.Inserts) > 0
}

// delegateReadOffRank invalidates the highest-degree reached delegate a rank
// other than 0 owns, deleting its tree edge and every edge it has to a vertex
// rank 0 owns, so that rank 0's GPUs hold none of its row: its tentative
// level comes from the other ranks' partial minima alone. The delegate keeps
// degree enough to stay one.
func delegateReadOffRank(c *chainDraw) (*delta.Batch, bool) {
	levels, parents := c.prior.Levels, c.prior.Parents
	if c.cfg.Ranks < 2 {
		return &delta.Batch{}, false
	}
	hub := int64(-1)
	for _, v := range c.sep.DelegateGlobal {
		if v != c.source && levels[v] >= 1 && c.cfg.OwnerRank(v) != 0 && (hub < 0 || c.sep.OutDeg[v] > c.sep.OutDeg[hub]) {
			hub = v
		}
	}
	if hub < 0 {
		return &delta.Batch{}, false
	}
	cut := map[int64]bool{parents[hub]: true}
	for _, v := range c.csr.Neighbors(hub) {
		if c.cfg.OwnerRank(v) == 0 && v != hub {
			cut[v] = true
		}
	}
	b := &delta.Batch{}
	kept := int64(0)
	for _, v := range c.csr.Neighbors(hub) {
		if !cut[v] {
			kept++
		}
	}
	for v := range cut {
		b.Deletes = append(b.Deletes, graph.Edge{U: hub, V: v})
	}
	slices.SortFunc(b.Deletes, func(x, y graph.Edge) int { return cmp.Compare(x.V, y.V) })
	return b, kept > c.th
}

const chainEpochs = 4

// FuzzRepairChain is the drawn oracle over epoch chains: scale 8–12 × cluster
// shape × exchange × compression × threshold × delta builder × delta size, then
// chainEpochs deltas in a row, each repaired result the next repair's prior —
// the way a MutableService's caller feeds them back, and the one way a patched
// tree's error could compound where a resolved one's cannot. Every link must
// equal, entry for entry in levels and parents, Plan.Run on that epoch and the
// serial min-id oracle, on the patching path and with the full resolution
// forced over the same copied arrays. Before each repair, the invalidated set
// MutableService.Repair derives — delta.InvalidatedRows over the new epoch's
// subgraphs — must equal delta.Invalidated's, which the repair then takes.
func FuzzRepairChain(f *testing.F) {
	f.Fuzz(func(t *testing.T, scale, shape, exchange, mode, threshold, kind, frac uint8, seed uint64) {
		runChain(t, chainCase{scale, shape, exchange, mode, threshold, kind, frac, seed}, nil)
	})
}

// countTrue counts a mask's set entries.
func countTrue(mask []bool) (n int) {
	for _, b := range mask {
		if b {
			n++
		}
	}
	return n
}

// chainCase is one FuzzRepairChain input.
type chainCase struct {
	scale, shape, exchange, mode, threshold, kind, frac uint8
	seed                                                uint64
}

// chainEpoch is what runChain shows a check of each link: the builder's
// input and output, the epoch it made and the repair onto it.
type chainEpoch struct {
	epoch    uint64
	draw     *chainDraw
	b        *delta.Batch
	built    bool
	sg       *partition.Subgraphs
	repaired *metrics.RunResult
}

// runChain draws one chain from cc and holds every link to the recompute and
// the min-id oracle; check, when set, sees each link after that.
func runChain(t *testing.T, cc chainCase, check func(*chainEpoch)) {
	ctx := context.Background()
	params := rmat.DefaultParams(8 + int(cc.scale%5))
	params.EdgeFactor, params.Seed = 8, cc.seed
	el := rmat.Generate(params)
	sh := chainShapes[int(cc.shape)%len(chainShapes)]
	cfg := sh.PartitionConfig()
	opts := repairOptions()
	opts.Exchange = chainExchanges[int(cc.exchange)%len(chainExchanges)]
	opts.Compression = chainModes[int(cc.mode)%len(chainModes)]
	th := chainThresholds[int(cc.threshold)%len(chainThresholds)]
	if th < 0 {
		th = partition.SuggestThreshold(el.OutDegrees(), 4*el.N/int64(sh.P()))
	}
	d := chainDeltas[int(cc.kind)%len(chainDeltas)]
	fr := chainFracs[int(cc.frac)%len(chainFracs)]
	seed := cc.seed
	source := pickSources(el.OutDegrees(), 1, int64(seed%1024))[0]
	label := fmt.Sprintf("scale %d, %s, %s, %s, th %d, %s %g, seed %d, source %d",
		8+cc.scale%5, sh, opts.Exchange, opts.Compression, th, d.name, fr, seed, source)

	sg, err := partition.Distribute(el, partition.Separate(el, th), cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlanEpoch(sg, sh, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	prior, err := plan.Run(ctx, source, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	for epoch := uint64(2); epoch < 2+chainEpochs; epoch++ {
		draw := &chainDraw{el: el, csr: graph.BuildCSR(el), sep: partition.Separate(el, th), cfg: cfg, th: th,
			prior: prior, source: source, frac: fr, seed: seed + epoch, rng: rand.New(rand.NewSource(int64(seed + epoch)))}
		b, built := d.build(draw)
		el2, err := delta.Apply(el, b)
		if err != nil {
			t.Fatal(err)
		}
		sg2, _, err := partition.DistributeIncremental(el2, partition.Separate(el2, th), cfg, sg)
		if err != nil {
			t.Fatal(err)
		}
		plan2, err := NewPlanEpoch(sg2, sh, opts, epoch)
		if err != nil {
			t.Fatal(err)
		}
		full, err := plan2.Run(ctx, source, Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		requireMinParents(t, label, graph.BuildCSR(el2), source, full.Levels, full.Parents)

		invalid, seeds := delta.Affected(prior.Levels, prior.Parents, b)
		if rows := delta.InvalidatedRows(prior.Levels, prior.Parents, b, sg2.Neighbors); !slices.Equal(rows, invalid) {
			t.Fatalf("%s, epoch %d: the row walk over the new epoch marks %d vertices, delta.Invalidated %d (or others)",
				label, epoch, countTrue(rows), countTrue(invalid))
		}
		patched, err := plan2.Repair(ctx, Prior{Source: source, Levels: prior.Levels, Parents: prior.Parents},
			invalid, b.Inserts, Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		requireSameTree(t, fmt.Sprintf("%s, epoch %d, Repair", label, epoch), patched, full)
		forced, err := plan2.repair(ctx, opts, &repairIn{source: source, levels: prior.Levels, parents: prior.Parents,
			invalid: invalid, seeds: seeds, full: true})
		if err != nil {
			t.Fatal(err)
		}
		requireSameTree(t, fmt.Sprintf("%s, epoch %d, full resolution forced", label, epoch), forced, full)
		if check != nil {
			check(&chainEpoch{epoch: epoch, draw: draw, b: b, built: built, sg: sg2, repaired: patched})
		}
		el, sg, prior = el2, sg2, patched
	}
}

// TestChainCorpusReachesScenarios replays the FuzzRepairChain corpus entries
// that draw a hand-built delta and requires each to build, on the chain's
// first link, what its builder is named for: an insert from the hub that
// seeds it; an insert whose endpoints are both invalidated; a non-improving
// insert whose far end the wave lowers all the same; every vertex but the
// root invalidated; an invalidated delegate none of whose row rank 0 holds,
// re-levelled from the other ranks.
func TestChainCorpusReachesScenarios(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzRepairChain")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	reached := map[string]bool{}
	for _, entry := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, entry.Name()))
		if err != nil {
			t.Fatal(err)
		}
		cc, err := parseChainCase(string(raw))
		if err != nil {
			t.Fatalf("%s: %v", entry.Name(), err)
		}
		name := chainDeltas[int(cc.kind)%len(chainDeltas)].name
		if int(cc.kind)%len(chainDeltas) < 3 {
			continue
		}
		t.Run(entry.Name(), func(t *testing.T) {
			runChain(t, cc, func(ce *chainEpoch) {
				if ce.epoch != 2 {
					return
				}
				if !ce.built {
					t.Fatalf("%s: the graph and prior did not let the builder build its delta", name)
				}
				if why := scenarioMissed(name, ce); why != "" {
					t.Fatalf("%s: %s", name, why)
				}
				reached[name] = true
			})
		})
	}
	for _, d := range chainDeltas[3:] {
		if !reached[d.name] {
			t.Errorf("no corpus entry reaches %q", d.name)
		}
	}
}

// parseChainCase reads a FuzzRepairChain corpus file: a header line, seven
// 8-bit values (written as uint8(n) or as byte('c')) and a uint64.
func parseChainCase(raw string) (chainCase, error) {
	lines := strings.Split(strings.TrimSpace(raw), "\n")
	if len(lines) != 9 || lines[0] != "go test fuzz v1" {
		return chainCase{}, fmt.Errorf("not a FuzzRepairChain input: %q", raw)
	}
	var vals [8]uint64
	for i, line := range lines[1:] {
		typ, arg, ok := strings.Cut(strings.TrimSuffix(line, ")"), "(")
		var err error
		switch {
		case !ok:
			err = fmt.Errorf("line %q", line)
		case typ == "byte":
			var c string
			if c, err = strconv.Unquote(arg); err == nil && len(c) != 1 {
				err = fmt.Errorf("byte %s", arg)
			} else if err == nil {
				vals[i] = uint64(c[0])
			}
		default:
			vals[i], err = strconv.ParseUint(arg, 0, 64)
		}
		if err != nil {
			return chainCase{}, err
		}
	}
	u := func(i int) uint8 { return uint8(vals[i]) }
	return chainCase{u(0), u(1), u(2), u(3), u(4), u(5), u(6), vals[7]}, nil
}

// scenarioMissed says how a chain's link falls short of its builder's
// scenario, or returns "".
func scenarioMissed(name string, ce *chainEpoch) string {
	prior := ce.draw.prior
	invalid := delta.Invalidated(prior.Levels, prior.Parents, ce.b)
	seeds := delta.InsertSeeds(prior.Levels, invalid, ce.b.Inserts)
	switch name {
	case "hub shortcut":
		if !slices.Contains(seeds, ce.b.Inserts[0].U) {
			return "the hub is not a seed"
		}
	case "insert between invalid":
		if e := ce.b.Inserts[0]; !invalid[e.U] || !invalid[e.V] {
			return "an endpoint is valid"
		}
	case "lowered non-improving insert":
		e := ce.b.Inserts[0]
		if slices.Contains(seeds, e.U) || slices.Contains(seeds, e.V) {
			return "the insert seeds the wave"
		}
		if ce.repaired.Levels[e.V] >= prior.Levels[e.V] {
			return "the far end was not lowered"
		}
	case "whole-graph invalidation":
		for v, l := range prior.Levels {
			if l >= 1 && !invalid[v] {
				return fmt.Sprintf("vertex %d stays valid", v)
			}
		}
	case "delegate read off rank 0":
		hub := ce.b.Deletes[0].U
		di := int64(ce.sg.Sep.DelegateID[hub])
		if di < 0 || !invalid[hub] {
			return fmt.Sprintf("vertex %d is no invalidated delegate", hub)
		}
		for _, pg := range ce.sg.GPUs {
			if pg.Rank == 0 && pg.DD.Degree(di)+pg.DN.Degree(di) > 0 {
				return "rank 0 holds part of its row"
			}
		}
		if ce.repaired.Levels[hub] < 1 {
			return "the repair left it unreached"
		}
	default:
		return "no such scenario"
	}
	return ""
}
