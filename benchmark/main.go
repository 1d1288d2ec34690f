// Command benchmark is gcbfs's host-clock benchmark: five workloads, the
// end-to-end metrics a caller of the library sees (tracing off), and a
// separate traced pass that breaks one core call down by layer. README.md
// says how to run it and how to read what it prints; BENCHMARK.json at the
// repository root is its contract.
//
//	go run -C benchmark . --workload rmat18-compute --seed 1 --seconds 10 --trace 0
//	go run -C benchmark .                       # every workload, untraced
//	go run -C benchmark . -trace 1 -out run.jsonl
//	go run -C benchmark . -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	out      string
	compare  bool
	spec     bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: every workload in turn)")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "input seed: graph, source pool and deltas derive from it")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the timed window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	flag.StringVar(&o.out, "out", "", "append each pass's full record (environment, quartiles, spans) to this file, one JSON object per line")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files given as arguments instead of running")
	flag.BoolVar(&o.spec, "spec", false, "print BENCHMARK.json as spec.go defines it and exit")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	switch {
	case o.spec:
		doc, err := benchmarkJSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(doc)
		return err
	case o.compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two record files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	case len(args) > 0:
		return fmt.Errorf("unexpected arguments %q", args)
	case o.seconds <= 0 || (o.trace != 0 && o.trace != 1):
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	todo := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		todo = []workload{w}
	}
	pass := runUntraced
	if o.trace == 1 {
		pass = runTraced
	}
	failed := 0
	var lines []resultLine
	for _, w := range todo {
		rec, err := pass(w, o.seed, limits{Seconds: o.seconds, SetupReps: setupReps, SetupSeconds: setupSeconds})
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		rec.print(os.Stdout)
		if o.out != "" {
			if err := appendRecord(o.out, rec); err != nil {
				return err
			}
		}
		failed += rec.Failed
		lines = append(lines, rec.resultLine())
	}
	// The contract's result: one JSON object as the last line (one per
	// workload when several ran).
	enc := json.NewEncoder(os.Stdout)
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d answers failed or differed from the reference", failed)
	}
	return nil
}
