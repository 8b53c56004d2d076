// Command bench is the repository's benchmark: four workloads over the
// replicated store, each checked for correctness, with end-to-end metrics
// measured while everything that observes the program is off and per-layer
// metrics from a separate traced run. README.md explains the design;
// BENCHMARK.json at the root of the repository is the contract.
//
//	bash bench/run.sh --workload served-mixed --seed 1 --seconds 15 --trace 0
//
// builds the program and measures one workload; the last line of its
// standard output is the result as JSON. Without --workload it measures all
// four and prints every metric by name. Other modes: -ladder, -selfcheck.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// verbose makes a run print its sub-windows on standard error.
var verbose bool

func main() {
	var (
		name    = flag.String("workload", "", "measure this workload and print its result as JSON (default: all four, every metric by name)")
		seed    = flag.Int64("seed", 1, "seed of the key choice, the operation mix and the Debit-Credit inputs")
		seconds = flag.Float64("seconds", 15, "length of the measured window")
		trace   = flag.Int("trace", 0, "1: run with the program's observability and the benchmark's spans on, and report the per-layer metrics")
		rungs   = flag.Bool("ladder", false, "time the same 64-byte put at each layer's entry point, print the rungs, and exit")
		check   = flag.Bool("selfcheck", false, "run every workload (or -workload) ten times, twice over, and say whether each end-to-end metric repeats within its bound")
		smoke   = flag.Bool("smoke", false, "shrink stores, keyspaces and warm-up so a run takes a second or two (for the tests)")
	)
	flag.BoolVar(&verbose, "v", false, "print what each sub-window measured on standard error")
	flag.Parse()

	names := []string{*name}
	if *name == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	var err error
	switch {
	case *rungs:
		var out map[string]metric
		if out, err = runLadder(1, outDir()); err == nil {
			printMetrics(out)
		}
	case *check:
		err = selfcheck(names, *seconds, *smoke)
	case *name == "":
		err = runAll(names, uint64(*seed), *seconds, *smoke, *trace != 0)
	default:
		err = runOne(*name, uint64(*seed), newScale(*seconds, *smoke), *trace != 0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints the result line.
func runOne(name string, seed uint64, sc scale, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	w = sc.sized(w)
	measure := runEndToEnd
	if traced {
		measure = runTraced
	}
	rep, err := measure(w, sc, seed)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runAll measures each workload in a fresh process and prints every metric
// by name with its unit.
func runAll(names []string, seed uint64, seconds float64, smoke, traced bool) error {
	for _, name := range names {
		rep, err := runChild(name, seed, seconds, smoke, traced)
		if err != nil {
			return err
		}
		fmt.Printf("%s: correct, %d operations attempted, %d failed\n", name, rep.Attempted, rep.Failed)
		printMetrics(rep.Metrics)
	}
	return nil
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
