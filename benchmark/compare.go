package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readRecords loads every record of an -out file.
func readRecords(path string) ([]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []*record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<28) // a traced record carries its spans on one line
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		rec := &record{}
		if err := json.Unmarshal(sc.Bytes(), rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// series collects one metric's values over the runs of one workload.
func series(recs []*record, workload, pass, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Pass == pass {
			out = append(out, v.Value)
		}
	}
	return out
}

// spread is the distance between the quartiles as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	return ratio(q3-q1, q2)
}

// compareFiles prints, per workload and end-to-end metric, both sets'
// medians and quartiles, how much worse b is than a, and the bound, with a
// verdict: regressed (worse by more than the bound), unresolved (either
// set's own run-to-run spread exceeds the bound, so the delta says nothing)
// or ok. Exact metrics must be identical between runs of the same workload
// and seed. Any regressed, unresolved or differing row is an error.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Fprintf(w, "%-16s %-20s %5s %12s %24s %12s %24s %8s %6s  %s\n",
		"workload", "metric", "runs", "median a", "quartiles a", "median b", "quartiles b", "worse", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			va, vb := series(a, wl.Name, "untraced", m.Name), series(b, wl.Name, "untraced", m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			worse := ratio(b2-a2, a2)
			if m.Better == higher {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case spread(va) > m.Bound || spread(vb) > m.Bound:
				verdict = "unresolved"
				bad++
			case worse > m.Bound:
				verdict = "regressed"
				bad++
			}
			fmt.Fprintf(w, "%-16s %-20s %2d/%-2d %12.6g %11.6g..%-11.6g %12.6g %11.6g..%-11.6g %+7.2f%% %5.1f%%  %s\n",
				wl.Name, m.Name, len(va), len(vb), a2, a1, a3, b2, b1, b3, 100*worse, 100*m.Bound, verdict)
		}
	}
	for _, d := range exactDiffs(append(a, b...)) {
		fmt.Fprintln(w, d)
		bad++
	}
	if bad > 0 {
		return fmt.Errorf("%d rows regressed, unresolved or not identical", bad)
	}
	return nil
}

// exactDiffs reports every exact metric that took two values among runs of
// the same workload, seed and pass.
func exactDiffs(recs []*record) []string {
	type key struct {
		workload, pass, metric string
		seed                   uint64
	}
	seen := map[key]float64{}
	var diffs []string
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range specs {
			if !m.Exact {
				continue
			}
			for _, r := range recs {
				v, ok := r.Metrics[m.Name]
				if !ok {
					continue
				}
				k := key{r.Workload, r.Pass, m.Name, r.Seed}
				if first, dup := seen[k]; dup && first != v.Value {
					diffs = append(diffs, fmt.Sprintf("%s seed %d: %s is %v in one run and %v in another; it must repeat exactly",
						r.Workload, r.Seed, m.Name, first, v.Value))
				}
				seen[k] = v.Value
			}
		}
	}
	return diffs
}
