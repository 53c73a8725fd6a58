package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"repro/bench/stats"
)

// benchmarkSpec is BENCHMARK.json, the contract this program is run and
// judged by.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// locate finds the benchmark's directory and BENCHMARK.json from the
// working directory, which is either the repository root or, under
// `go run -C bench`, the benchmark's directory itself.
func locate() (benchDir string, spec benchmarkSpec, err error) {
	for _, c := range []struct{ specPath, benchDir string }{
		{"BENCHMARK.json", "bench"},
		{filepath.Join("..", "BENCHMARK.json"), "."},
	} {
		data, rerr := os.ReadFile(c.specPath)
		if rerr != nil {
			continue
		}
		if err := json.Unmarshal(data, &spec); err != nil {
			return "", spec, fmt.Errorf("%s: %w", c.specPath, err)
		}
		return c.benchDir, spec, nil
	}
	return "", spec, fmt.Errorf("BENCHMARK.json not found: run from the repository root or with go run -C bench")
}

// runChild runs one workload in a child process — its own heap, its own
// ports, its own garbage collector — echoes its report, and parses the
// JSON line that ends it.
func runChild(name string, seed int64, seconds, trace int, dir string) (wireResult, error) {
	var res wireResult
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-dir", filepath.Join(dir, name))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	var last []byte
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != nil {
			fmt.Printf("%s\n", last)
		}
		last = append(last[:0], sc.Bytes()...)
	}
	if runErr != nil {
		return res, fmt.Errorf("%s: %w", name, runErr)
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("%s: last output line is not a result: %w", name, err)
	}
	return res, nil
}

// runSuite runs every workload once and reports whether all were correct.
func runSuite(seed int64, seconds, trace int, dir string) (map[string]wireResult, bool) {
	results := map[string]wireResult{}
	ok := true
	for _, ws := range workloadSpecs {
		res, err := runChild(ws.name, seed, seconds, trace, dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			ok = false
			continue
		}
		results[ws.name] = res
		ok = ok && res.Correct && res.Failed == 0
	}
	fmt.Printf("# suite: seed=%d seconds=%d trace=%d all_correct=%v claim=null\n", seed, seconds, trace, ok)
	return results, ok
}

// selfcheckReps is how many times each side of the A/A check runs the
// suite. One run against one run differs by up to a third on the fsync-
// bound workload of the reference box; the acceptance driver compares
// medians of ten runs a side, and this check compares medians too.
const selfcheckReps = 3

// runSelfcheck is the A/A check: the untraced suite 2 × selfcheckReps
// times on one build, the two sides alternated, every end-to-end metric's
// median on the second side held against the first side's and the metric's
// bound. A benchmark whose bounds are tighter than its own noise cannot
// tell a regression from a rerun.
func runSelfcheck(spec benchmarkSpec, seed int64, seconds int, dir string) int {
	code := 0
	var sides [2][]map[string]wireResult
	for rep := 0; rep < selfcheckReps; rep++ {
		for side := range sides {
			results, ok := runSuite(seed+int64(rep), seconds, 0, dir)
			if !ok {
				code = 1
			}
			sides[side] = append(sides[side], results)
		}
	}
	median := func(side []map[string]wireResult, workload, metric string) float64 {
		var values []float64
		for _, results := range side {
			values = append(values, results[workload].Metrics[metric].Value)
		}
		return stats.Median(values)
	}
	fmt.Printf("# selfcheck: one build, %d runs a side alternated (seeds %d..%d), %d s each, medians compared\n",
		selfcheckReps, seed, seed+selfcheckReps-1, seconds)
	fmt.Printf("| workload | metric | first | second | worsening | bound | |\n|---|---|---|---|---|---|---|\n")
	for _, ws := range workloadSpecs {
		for _, ms := range spec.EndToEnd {
			a, b := median(sides[0][:], ws.name, ms.Name), median(sides[1][:], ws.name, ms.Name)
			worse := stats.Worsening(a, b, ms.Better == "higher")
			verdict := "ok"
			if math.Abs(worse) > ms.Bound {
				verdict, code = "EXCEEDS", 1
			}
			fmt.Printf("| %s | %s | %.4g | %.4g | %+.2f%% | %.0f%% | %s |\n",
				ws.name, ms.Name, a, b, 100*worse, 100*ms.Bound, verdict)
		}
	}
	return code
}
