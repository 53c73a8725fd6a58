// Command bench is the repository's one benchmark of the commit path:
// four workloads, each run closed-loop and paced, each checking the
// system's outputs, with a separate traced run for per-layer figures.
//
//	go run -C bench . --workload bank_wire_durable --seed 1 --seconds 20 --trace 0
//	go run -C bench .                 # every workload, each in its own process
//	go run -C bench . -trace 1        # the traced run of every workload
//	go run -C bench . -selfcheck      # the suite twice; differences against the bounds
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
		seed         = flag.Int64("seed", 1, "seed of the generated inputs: keys, accounts, amounts, texts")
		seconds      = flag.Int("seconds", 0, "measured seconds per run, cut into ten windows (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "1 = the traced run (per-layer metrics), 0 = the untraced run (end-to-end metrics)")
		selfcheck    = flag.Bool("selfcheck", false, "run the untraced suite twice on this build and hold the differences against the bounds")
		dir          = flag.String("dir", "", "scratch directory for WAL files, removed on exit (default: a fresh one under the benchmark's out/)")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments; -trace takes 0 or 1")
		os.Exit(2)
	}
	fatal := func(code int, err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(code)
		}
	}
	benchDir, spec, err := locate()
	fatal(2, err)
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	outDir := filepath.Join(benchDir, "out")
	fatal(1, os.MkdirAll(outDir, 0o755))
	if *dir == "" {
		*dir, err = os.MkdirTemp(outDir, "run-")
		fatal(1, err)
	} else {
		fatal(1, os.MkdirAll(*dir, 0o755))
	}
	code := 0
	switch {
	case *selfcheck:
		code = runSelfcheck(spec, *seed, *seconds, *dir)
	case *workloadName == "":
		if _, ok := runSuite(*seed, *seconds, *trace, *dir); !ok {
			code = 1
		}
	default:
		code = runOne(*workloadName, *seed, *seconds, *trace == 1, *dir, outDir)
	}
	_ = os.RemoveAll(*dir)
	os.Exit(code)
}

// runOne runs one workload in this process, prints the report, and ends
// standard output with the one-line JSON result.
func runOne(name string, seed int64, seconds int, traced bool, dir, outDir string) int {
	ws, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	e := &env{seed: seed, dir: dir, callers: min(runtime.NumCPU(), 2), log: os.Stdout}
	unit := time.Duration(seconds) * time.Second / windowsPerRun
	printStamp(os.Stdout, e, ws, seconds, unit, traced)
	var res *result
	var err error
	if traced {
		res, err = runTraced(e, ws, unit, outDir)
	} else {
		res, err = runEndToEnd(e, ws, unit)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	printResult(os.Stdout, res)
	line, err := json.Marshal(res.wire())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	return 0
}

// wireResult is the last line of a run's standard output.
type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) wire() wireResult {
	out := wireResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]wireMetric{}}
	for name, m := range r.metrics {
		out.Metrics[name] = wireMetric{m.value, m.unit}
	}
	return out
}

// printStamp records the environment a result was measured in.
func printStamp(w io.Writer, e *env, ws workloadSpec, seconds int, unit time.Duration, traced bool) {
	shape := fmt.Sprintf("closed_windows=%d paced_windows=%d window=%v setup_reps=%d", closedWindows, pacedWindows, unit, setupReps)
	if traced {
		shape = fmt.Sprintf("traced_pairs=%d paced_windows=1 window=%v setup_reps=1", tracedPairs, tracedUnits*unit)
	}
	fmt.Fprintf(w, "# bench workload=%s seed=%d seconds=%d trace=%v\n", ws.name, e.seed, seconds, traced)
	fmt.Fprintf(w, "# env nproc=%d gomaxprocs=%d go=%s git=%s scratch_fs=%s callers=%d paced_rate=%d/s %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitRev(), fsType(e.dir), e.callers, ws.pacedRate, shape)
}

// gitRev names the commit being measured; a checkout without git metadata
// is "unknown".
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem under the scratch directory: fsync cost is
// the filesystem's, so a WAL figure means nothing without it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	known := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs", 0x65735546: "fuse",
	}
	if name, ok := known[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// printResult lists every metric by name with its unit, the number of
// windows behind it and their spread.
func printResult(w io.Writer, r *result) {
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.metrics[name]
		fmt.Fprintf(w, "%-18s %-32s %16.4f %-6s", r.workload, name, m.value, m.unit)
		if m.n > 0 {
			fmt.Fprintf(w, " n=%d iqr/median=%.4f", m.n, m.spread)
		}
		fmt.Fprintln(w)
	}
	for _, note := range r.notes {
		fmt.Fprintf(w, "# %s\n", note)
	}
	fmt.Fprintf(w, "# %s: correct=%v ops_attempted=%d ops_failed=%d\n", r.workload, r.correct, r.attempted, r.failed)
}
