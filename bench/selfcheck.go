package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// contract is the part of BENCHMARK.json the program reads: which metrics a
// run must print and the bound each end-to-end metric carries.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// readContract finds BENCHMARK.json from the root of the repository or
// from the benchmark's own directory.
func readContract() (*contract, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		if data, err = os.ReadFile("../BENCHMARK.json"); err != nil {
			return nil, err
		}
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// runChild measures one workload in a fresh process of this program and
// returns the result it printed.
func runChild(workload string, seed uint64, seconds float64, smoke, traced bool) (*report, error) {
	args := []string{"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64)}
	if smoke {
		args = append(args, "-smoke")
	}
	if traced {
		args = append(args, "-trace", "1")
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line of output: %w", workload, seed, err)
	}
	return &rep, nil
}

// selfcheck does what the driver does to accept the benchmark: two sets of
// runs of this same code, each run on another seed, workloads alternating
// within a set. For every end-to-end metric of every workload it prints
// both medians, the first set's quartiles, the spread between them as a
// share of the median, and how much worse the second median is than the
// first; a metric passes when spread and worsening both stay within its
// bound (setup_s is held to the worsening only, as the driver holds it).
func selfcheck(names []string, seconds float64, smoke bool) error {
	const runs = 10 // in each set, as the driver makes
	c, err := readContract()
	if err != nil {
		return err
	}
	// values[set][workload][metric] = one value per run
	var values [2]map[string]map[string][]float64
	began := time.Now()
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for run := 1; run <= runs; run++ {
			for _, name := range names {
				rep, err := runChild(name, uint64(run), seconds, smoke, false)
				if err != nil {
					return err
				}
				if !rep.Correct || rep.Failed > 0 {
					return fmt.Errorf("%s seed %d: correct=%v failed=%d of %d", name, run, rep.Correct, rep.Failed, rep.Attempted)
				}
				if values[set][name] == nil {
					values[set][name] = map[string][]float64{}
				}
				for m, v := range rep.Metrics {
					values[set][name][m] = append(values[set][name][m], v.Value)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: set %d run %d/%d %s done (%.0f s so far)\n",
					set+1, run, runs, name, time.Since(began).Seconds())
			}
		}
	}
	failed := 0
	for _, name := range names {
		fmt.Printf("\n%s — %d runs a set, seeds 1..%d, %.0f s windows\n", name, runs, runs, seconds)
		fmt.Printf("%-20s %-6s %14s %14s %14s %8s %14s %8s %6s  %s\n",
			"metric", "unit", "median 1", "q1", "q3", "spread", "median 2", "worse", "bound", "")
		for _, e := range c.EndToEnd {
			a, b := values[0][name][e.Name], values[1][name][e.Name]
			q1, med1, q3 := quartiles(a)
			_, med2, _ := quartiles(b)
			spread := (q3 - q1) / med1
			worse := (med2 - med1) / med1
			if e.Better == "higher" {
				worse = -worse
			}
			ok := worse <= e.Bound && (spread <= e.Bound || e.Name == "setup_s")
			verdict := "ok"
			if !ok {
				verdict = "OUTSIDE THE BOUND"
				failed++
			}
			fmt.Printf("%-20s %-6s %14.6g %14.6g %14.6g %7.2f%% %14.6g %+7.2f%% %5.1f%%  %s\n",
				e.Name, e.Unit, med1, q1, q3, 100*spread, med2, 100*worse, 100*e.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("selfcheck: %d metrics did not repeat within their bounds", failed)
	}
	return nil
}
