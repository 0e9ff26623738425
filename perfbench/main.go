// Command perfbench is the reproduction's end-to-end benchmark. It runs
// one named workload for a fixed measuring window, checks that the
// program's outputs are correct, and prints every metric by name and
// unit. With -trace 0 it reports the end-to-end metrics of
// BENCHMARK.json; with -trace 1 it reports the per-layer metrics,
// timed around the benchmark's own calls into each module and read
// from the spans that obs/trace records.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload hub-search --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it records
// the machine (nproc, GOMAXPROCS, Go version, CPU model) and the seed.
// METRICS.md lists every metric with its unit, layer and workload.
//
//sf:wallclock — a benchmark measures wall-clock time by design.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	tmpDir   string
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 20, "measuring window in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	fs.StringVar(&o.tmpDir, "tmpdir", filepath.Join(".bench_build", "tmp"), "directory for snapshots and caches (removed afterwards)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown -workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("-seconds %d < 1", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	o.trace = trace == 1
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "perfbench:", err)
		}
		return 2
	}
	recorded, err := recordedDigests()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(o.tmpDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(o.tmpDir, o.workload+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	cfg := runConfig{
		seed:    o.seed,
		window:  time.Duration(o.seconds) * time.Second,
		trace:   o.trace,
		workers: runtime.GOMAXPROCS(0),
		tmp:     tmp,
		params:  defaultParams,
		logf:    func(format string, a ...any) { fmt.Fprintf(stderr, "perfbench: "+format+"\n", a...) },
	}
	rep, err := workloads[o.workload](context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	rep.check(o.workload, o.seed, recorded, cfg.logf)
	line, err := rep.resultLine(o.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	env, _ := json.Marshal(environment(o.workload, o.seed, o.trace))
	fmt.Fprintln(stdout, string(env))
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runConfig is what a workload needs to know about one invocation.
type runConfig struct {
	seed    uint64
	window  time.Duration
	trace   bool
	workers int
	tmp     string
	params  params
	logf    func(format string, a ...any)
}

// workloadFunc runs one workload for the measuring window and returns
// its report. An error means the workload could not run at all; wrong
// outputs are reported through the report's failures instead.
type workloadFunc func(ctx context.Context, cfg runConfig) (*report, error)

// workloadWhy records why each workload is in the benchmark; it is the
// "why" of BENCHMARK.json.
var workloadWhy = map[string]string{
	"hub-search":  "Mori p=0.9 graphs searched by all 12 algorithms under budget n: search is over 95% of the trial, so O(deg) request paths show",
	"paper-sweep": "E1-E13 in process, no cache: the real mix of search, Monte Carlo and BFS, with wall time set by engine stragglers",
	"fleet-sweep": "E1 through CoordinateSweep and 2 loopback workers: short trials make leases, wire, codec and cache writes half the wall",
	"giant-graph": "Mori and Cooper-Frieze graphs at 2^20 vertices through generate, freeze, snapshot write/open/validate, BFS and components",
}

var workloads = map[string]workloadFunc{
	"hub-search":  runHubSearch,
	"paper-sweep": runPaperSweep,
	"fleet-sweep": runFleetSweep,
	"giant-graph": runGiantGraph,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
