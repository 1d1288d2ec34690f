package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// value is one reported figure.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment pins down where a record was measured.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func currentEnvironment() environment {
	env := environment{
		Commit:     os.Getenv("BENCH_COMMIT"),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	if env.Commit == "" {
		env.Commit = "unknown"
	}
	return env
}

// record is one pass of one workload: what -out appends (one JSON object per
// line) and what -compare reads back.
type record struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Pass     string      `json:"pass"` // "untraced" or "traced": which pass produced every number below
	Env      environment `json:"env"`
	Seconds  float64     `json:"seconds"`

	// Ops counts timed operations, Attempted the answers they should have
	// produced, Failed those that errored or differed from the reference.
	Ops       int `json:"ops"`
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// FirstFailure keeps the first error for the log.
	FirstFailure string `json:"first_failure,omitempty"`

	// Metrics holds the BENCHMARK.json rows of this pass; Info holds figures
	// printed beside them that carry no bound and no contract.
	Metrics map[string]value  `json:"metrics"`
	Info    map[string]value  `json:"info,omitempty"`
	Timings map[string]timing `json:"timings"`
	Spans   []span            `json:"spans,omitempty"`
}

func newRecord(w workload, seed uint64, pass string, seconds float64) *record {
	return &record{
		Workload: w.Name, Seed: seed, Pass: pass, Env: currentEnvironment(), Seconds: seconds,
		Metrics: map[string]value{}, Info: map[string]value{}, Timings: map[string]timing{},
	}
}

// fail counts one failed answer out of those attempted.
func (r *record) fail(err error) {
	r.Failed++
	if r.FirstFailure == "" {
		r.FirstFailure = err.Error()
	}
}

// setMetrics stores vals under the given spec rows; a row without a value
// reads 0 ("this workload never exercises it").
func (r *record) setMetrics(specs []metricSpec, vals map[string]float64) {
	for _, s := range specs {
		r.Metrics[s.Name] = value{Value: vals[s.Name], Unit: s.Unit}
	}
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (r *record) resultLine() resultLine {
	return resultLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

// print writes the human-readable table of one record.
func (r *record) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed %d  %s pass  %d ops, %d answers, %d failed\n",
		r.Workload, r.Seed, r.Pass, r.Ops, r.Attempted, r.Failed)
	if r.FirstFailure != "" {
		fmt.Fprintf(w, "   first failure: %s\n", r.FirstFailure)
	}
	printValues(w, r.Metrics)
	printValues(w, r.Info)
	names := make([]string, 0, len(r.Timings))
	for name := range r.Timings {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := r.Timings[name]
		fmt.Fprintf(w, "   %-40s n=%-5d p25 %.6g  p50 %.6g  p75 %.6g s\n", name, t.N, t.P25, t.P50, t.P75)
	}
}

func printValues(w io.Writer, vals map[string]value) {
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "   %-40s %14.6g %s\n", name, vals[name].Value, vals[name].Unit)
	}
}

// appendRecord appends r to path as one JSON line.
func appendRecord(path string, r *record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// benchmarkJSON renders BENCHMARK.json from the tables in spec.go.
func benchmarkJSON() ([]byte, error) {
	type workloadRow struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eRow struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerRow struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadRow `json:"workloads"`
		EndToEnd   []e2eRow      `json:"end_to_end"`
		PerLayer   []layerRow    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadRow{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eRow{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerRow{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
