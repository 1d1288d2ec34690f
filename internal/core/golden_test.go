package core

// The golden rows pin every statistic a RunResult reports — the modelled
// clock, its breakdown, every wire and exchange counter, every per-iteration
// row and a digest of the tree — for Run × exchange × codec × GPUs per rank,
// RunSweep, Repair and the frozen RunRepair: 33 rows, each a file under
// testdata/golden with one `r<i>.<Field.Path> = value` line per scalar of each
// of its results (resultLines, checkGolden). A refactor moves no line. A
// change that moves the modelled clock or the accounting on purpose
// re-baselines with
//
//	go test ./internal/core -run TestGoldenRunResults -update
//
// then reads the diff of testdata/golden and says in CHANGES.md why each moved
// field moved.

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gcbfs/internal/delta"
	"gcbfs/internal/metrics"
	"gcbfs/internal/rmat"
	"gcbfs/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from what the code gives")

var goldenDir = filepath.Join("testdata", "golden")

// resultLines flattens a result into one `<Field.Path> = value` line per
// scalar, walking metrics.RunResult with reflect, so a field added to it later
// is pinned without touching this test: one line per slice entry (each
// PerIteration row, %+v), and Levels and Parents as one `tree` digest, since
// the bit-identity suites own the arrays. Floats print in shortest round-trip
// form, strings quoted.
func resultLines(r *metrics.RunResult) []string {
	c := *r
	c.Levels, c.Parents = nil, nil
	h := sha256.New()
	fmt.Fprintf(h, "%v\n%v\n", r.Levels, r.Parents)
	return append(appendFieldLines(nil, "", reflect.ValueOf(c)), fmt.Sprintf("tree = %x", h.Sum(nil)[:8]))
}

func appendFieldLines(lines []string, path string, v reflect.Value) []string {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			lines = appendFieldLines(lines, strings.TrimPrefix(path+"."+v.Type().Field(i).Name, "."), v.Field(i))
		}
	case reflect.Slice:
		for i := range v.Len() {
			lines = append(lines, fmt.Sprintf("%s[%d] = %+v", path, i, v.Index(i)))
		}
	case reflect.String:
		lines = append(lines, fmt.Sprintf("%s = %q", path, v))
	default:
		lines = append(lines, fmt.Sprintf("%s = %v", path, v))
	}
	return lines
}

// fieldMove is one line that differs between two flattenings; a line on one
// side only reads (none) on the other.
type fieldMove struct{ field, old, new string }

// String reads `field old → new`; on a struct-valued line (a PerIteration
// row, %+v) it names each field inside that moved instead.
func (m fieldMove) String() string {
	was, now := strings.Fields(m.old), strings.Fields(m.new)
	if !strings.HasPrefix(m.old, "{") || !strings.HasPrefix(m.new, "{") || len(was) != len(now) {
		return m.field + " " + m.old + " → " + m.new
	}
	var moved []string
	for i := range was {
		if was[i] != now[i] {
			k, o, _ := strings.Cut(strings.Trim(strings.ReplaceAll(was[i], ":{", "."), "{}"), ":")
			_, n, _ := strings.Cut(strings.Trim(strings.ReplaceAll(now[i], ":{", "."), "{}"), ":")
			moved = append(moved, m.field+"."+k+" "+o+" → "+n)
		}
	}
	return strings.Join(moved, "; ")
}

// fieldMoves names every field whose line differs from was to now, in now's
// order, then the fields now lacks.
func fieldMoves(was, now []string) []fieldMove {
	old := make(map[string]string, len(was))
	for _, l := range was {
		k, v, _ := strings.Cut(l, " = ")
		old[k] = v
	}
	var moves []fieldMove
	for _, l := range now {
		k, v, _ := strings.Cut(l, " = ")
		if o, ok := old[k]; !ok {
			moves = append(moves, fieldMove{k, "(none)", v})
		} else if o != v {
			moves = append(moves, fieldMove{k, o, v})
		}
		delete(old, k)
	}
	for _, l := range was {
		k, v, _ := strings.Cut(l, " = ")
		if _, ok := old[k]; ok {
			moves = append(moves, fieldMove{k, v, "(none)"})
			delete(old, k)
		}
	}
	return moves
}

func goldenPath(row string) string {
	return filepath.Join(goldenDir, strings.ReplaceAll(row, "/", "_")+".txt")
}

// checkGolden compares a row — every result's lines behind its `r<i>.`
// prefix — with its file line by line and reports each moved field as
// `row: field old → new`; under -update it rewrites the file.
func checkGolden(t *testing.T, row string, results ...*metrics.RunResult) {
	t.Helper()
	var got []string
	for i, r := range results {
		for _, l := range resultLines(r) {
			got = append(got, fmt.Sprintf("r%d.%s", i, l))
		}
	}
	if *update {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(row), []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath(row))
	if err != nil {
		t.Errorf("%s: %v (go test ./internal/core -run TestGoldenRunResults -update writes it)", row, err)
		return
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	moves := fieldMoves(want, got)
	for _, m := range moves {
		t.Errorf("%s: %s", row, m)
	}
	if len(moves) == 0 && !slices.Equal(want, got) {
		t.Errorf("%s: %s holds every line in another order", row, goldenPath(row))
	}
}

func TestGoldenRunResults(t *testing.T) {
	ctx := context.Background()
	el := rmat.Generate(rmat.DefaultParams(10))
	rows := map[string]bool{}
	check := func(row string, results ...*metrics.RunResult) {
		t.Helper()
		rows[goldenPath(row)] = true
		checkGolden(t, row, results...)
	}

	// A run's replay offers only from vertices the traversal proved have a
	// child level; the same query with the filter forced off (/unfiltered)
	// differs in ParentPairs and Wire.Pair*Bytes only.
	for _, x := range []Exchange{ExchangeAllPairs, ExchangeButterfly, ExchangeHybrid} {
		for _, mode := range []wire.Mode{wire.ModeOff, wire.ModeAdaptive} {
			for _, pgpu := range []int{1, 2} {
				opts := DefaultOptions()
				opts.CollectParents = true
				opts.Exchange = x
				opts.Compression = mode
				p := buildPlan(t, el, ClusterShape{Nodes: 3, RanksPerNode: 2, GPUsPerRank: pgpu}, 16, opts)
				name := fmt.Sprintf("run/%s/%s/%d", x, mode, pgpu)
				var results, unfiltered []*metrics.RunResult
				for _, src := range delegateAndNormalSources(p.sg.Sep) {
					res, err := p.Run(ctx, src, Overrides{})
					if err != nil {
						t.Fatal(err)
					}
					results = append(results, res)
					all := runUnfiltered(t, p, src, Overrides{})
					unfiltered = append(unfiltered, all)
					requireSameButPairs(t, name, res, all)
				}
				check(name, results...)
				check(name+"/unfiltered", unfiltered...)
			}
		}
	}

	// A sweep reports no mask-codec bytes, no per-iteration rows, and the
	// strategy "sweep", whatever the loop underneath records. It rides the
	// exchange the query asks for: the butterfly and hybrid rows run on six
	// ranks of two GPUs (cleanup hops, the NVLink tier) amplified until the
	// hybrid mixes the two.
	sweepOpts := DefaultOptions()
	sweepOpts.CollectParents = true
	sweepOpts.Compression = wire.ModeAdaptive
	sp := buildPlan(t, el, ClusterShape{Nodes: 3, RanksPerNode: 1, GPUsPerRank: 2}, 16, sweepOpts)
	sweepOpts.WorkAmplification = 64
	xp := buildPlan(t, el, ClusterShape{Nodes: 3, RanksPerNode: 2, GPUsPerRank: 2}, 16, sweepOpts)
	for _, tc := range []struct {
		name string
		p    *Plan
		k    int
		x    Exchange
	}{
		{"sweep/1", sp, 1, ExchangeAllPairs}, {"sweep/8", sp, 8, ExchangeAllPairs}, {"sweep/65", sp, 65, ExchangeAllPairs},
		{"sweep/butterfly/8", xp, 8, ExchangeButterfly}, {"sweep/hybrid/8", xp, 8, ExchangeHybrid},
	} {
		results, err := tc.p.RunSweep(ctx, pickSources(el.OutDegrees(), tc.k, 11), Overrides{Exchange: &tc.x})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Wire.MaskRawBytes != 0 || r.Wire.MaskWireBytes != 0 || r.PerIteration != nil || r.Exchange.Strategy != "sweep" {
				t.Fatalf("%s: mask bytes %d/%d, %d per-iteration rows, strategy %q",
					tc.name, r.Wire.MaskRawBytes, r.Wire.MaskWireBytes, len(r.PerIteration), r.Exchange.Strategy)
			}
		}
		if st := results[0].Exchange; tc.x != ExchangeAllPairs && (st.ButterflyIterations == 0 || st.ForwardedBytes == 0 || (tc.x == ExchangeHybrid) != (st.AllPairsIterations > 0)) {
			t.Fatalf("%s: %d all-pairs and %d butterfly supersteps, %d bytes forwarded", tc.name, st.AllPairsIterations, st.ButterflyIterations, st.ForwardedBytes)
		}
		check(tc.name, results...)
	}

	// The repairs, on the epoch a mixed delta produced: hybrid with the adaptive
	// codec on 1×2×2, and what the rmat16-mutable host workload repairs with
	// (all-pairs, codec and U off) on its 4×2×2 shape. Plan.Repair patches the
	// prior tree and the frozen RunRepair resolves it from nothing after the
	// same wave, so each pair of rows differs in ParentPairs and
	// Wire.Pair*Bytes only.
	source := repairSource(el)
	b := delta.Synthesize(el, 0.02, delta.KindMixed, 42)
	for _, tc := range []struct {
		name  string
		shape ClusterShape
		x     Exchange
		mode  wire.Mode
	}{
		{"repair", ClusterShape{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 2}, ExchangeHybrid, wire.ModeAdaptive},
		{"repair/off", ClusterShape{Nodes: 4, RanksPerNode: 2, GPUsPerRank: 2}, ExchangeAllPairs, wire.ModeOff},
	} {
		opts := repairOptions()
		opts.Exchange = tc.x
		opts.Compression = tc.mode
		prior, p2 := nextEpoch(t, el, tc.shape, 32, opts, source, b)
		invalid, seeds := delta.Affected(prior.Levels, prior.Parents, b)
		rep, err := p2.Repair(ctx, Prior{Source: source, Levels: prior.Levels, Parents: prior.Parents}, invalid, b.Inserts, Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err := p2.RunRepair(ctx, source, prior.Levels, invalid, seeds, Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		check(tc.name, rep)
		check(tc.name+"/RunRepair", wrapped)
		if rep.ParentPairs >= wrapped.ParentPairs {
			t.Errorf("%s: the patch sent %d pairs, the full resolution %d: nothing was patched", tc.name, rep.ParentPairs, wrapped.ParentPairs)
		}
		requireSameButPairs(t, tc.name+": Repair and RunRepair", rep, wrapped)
	}

	// Every file is a row this test checked: a dropped row fails here.
	files, err := filepath.Glob(filepath.Join(goldenDir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !rows[f] {
			t.Errorf("%s: no row writes it", f)
		}
	}
}

// TestGoldenCoversEveryField sets each exported leaf field of a RunResult in
// turn, and of its one PerIteration row, and holds its flattening to exactly
// one moved line named by the field's path: a PerIteration field moves its
// row's line, Levels or Parents the tree digest.
func TestGoldenCoversEveryField(t *testing.T) {
	var r metrics.RunResult
	rv := reflect.ValueOf(&r).Elem()
	tree := func(path string) bool { return path == "Levels" || path == "Parents" }
	for i := range rv.NumField() {
		if f := rv.Field(i); f.Kind() == reflect.Slice && !tree(rv.Type().Field(i).Name) {
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		}
	}
	base := resultLines(&r)
	// line is the line a leaf under path moves; empty, it is path itself.
	var visit func(path, line string, v reflect.Value)
	visit = func(path, line string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := range v.NumField() {
				if f := v.Type().Field(i); f.IsExported() {
					visit(strings.TrimPrefix(path+"."+f.Name, "."), line, v.Field(i))
				}
			}
			return
		case reflect.Slice:
			if !tree(path) {
				visit(path, path+"[0]", v.Index(0))
				return
			}
			line = "tree"
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(1)
		case reflect.Float32, reflect.Float64:
			v.SetFloat(1)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.String:
			v.SetString("x")
		default:
			t.Fatalf("%s: no non-zero value for kind %s", path, v.Kind())
		}
		if line == "" {
			line = path
		}
		moves := fieldMoves(base, resultLines(&r))
		if len(moves) != 1 || moves[0].field != line {
			t.Errorf("%s set: moved %v, want the one line %s", path, moves, line)
		}
		v.Set(reflect.Zero(v.Type()))
	}
	visit("", "", rv)
}
