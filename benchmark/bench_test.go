package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON keeps BENCHMARK.json and spec.go one document, and
// within the limits the contract puts on names, units and reasons.
func TestBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with: go run -C benchmark . -spec > BENCHMARK.json")
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range specs {
			name(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q", m.Name, m.Unit)
			}
			if m.Better != lower && m.Better != higher {
				t.Errorf("%s: better %q", m.Name, m.Better)
			}
			hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in seconds, lower is better")
	}
}

// TestSmoke runs both passes of every workload at scale 10 with 4 ops and
// checks that each emits exactly the rows BENCHMARK.json lists, with units,
// and that no answer fails.
func TestSmoke(t *testing.T) {
	passes := []struct {
		name  string
		run   func(workload, uint64, limits) (*record, error)
		specs []metricSpec
	}{
		{"untraced", runUntraced, endToEnd},
		{"traced", runTraced, perLayer},
	}
	for _, w := range workloads {
		w.Scale = 10
		for _, p := range passes {
			rec, err := p.run(w, defaultSeed, limits{Ops: 4, SetupReps: 1})
			if err != nil {
				t.Fatalf("%s %s: %v", w.Name, p.name, err)
			}
			if rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s %s: %d of %d answers failed: %s", w.Name, p.name, rec.Failed, rec.Attempted, rec.FirstFailure)
			}
			line := rec.resultLine()
			if len(line.Metrics) != len(p.specs) {
				t.Errorf("%s %s: %d metrics, BENCHMARK.json lists %d", w.Name, p.name, len(line.Metrics), len(p.specs))
			}
			for _, m := range p.specs {
				v, ok := line.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s %s: metric %s missing or unit %q, want %q", w.Name, p.name, m.Name, v.Unit, m.Unit)
				}
			}
			for _, m := range endToEnd {
				if p.name == "untraced" && !(rec.Metrics[m.Name].Value > 0) {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.Name, m.Name, rec.Metrics[m.Name].Value)
				}
			}
		}
	}
}
