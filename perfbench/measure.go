package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"scalefree/internal/engine"
)

// params sizes the workloads. defaultParams is what the benchmark
// measures; the tests run the same code at tinyParams.
type params struct {
	hubN      int     // Móri size of the hub-search graphs
	hubTrials int     // graphs per hub-search round, each searched by all 12 algorithms
	scale     float64 // experiment scale of paper-sweep and fleet-sweep
	giantN    int     // size of the giant-graph Móri and Cooper–Frieze graphs
	minRounds int     // rounds a run makes even when the window is spent
}

var defaultParams = params{
	hubN:      1 << 12,
	hubTrials: 8,
	scale:     0.25,
	giantN:    1 << 20,
	minRounds: 3,
}

// round is the timing of one repetition of a workload's inputs.
type round struct {
	setup time.Duration // from the start of the round to the first trial dispatched
	wall  time.Duration // from the first trial dispatched to verified output
	cpu   time.Duration // user+sys CPU time of the process during wall
	rssMB float64       // peak resident memory during the round
}

// roundClock times one round. dispatched marks the end of set-up and
// may be called from any goroutine; only its first call counts.
type roundClock struct {
	begin    time.Time
	once     sync.Once
	dispatch time.Time
	cpu0     time.Duration
}

func startRound() *roundClock {
	resetPeakRSS()
	return &roundClock{begin: time.Now()}
}

func (c *roundClock) dispatched() {
	c.once.Do(func() {
		c.dispatch = time.Now()
		c.cpu0 = processCPU()
	})
}

// finish closes the round at verified output.
func (c *roundClock) finish() round {
	c.dispatched()
	return round{
		setup: c.dispatch.Sub(c.begin),
		wall:  time.Since(c.dispatch),
		cpu:   processCPU() - c.cpu0,
		rssMB: peakRSSMB(),
	}
}

// repeat runs one round at a time until the measuring window is spent:
// it starts another round only while a round of the median length so
// far would end inside the window, and always makes at least
// minRounds. The median keeps one slow round from ending the run early.
func repeat(ctx context.Context, cfg runConfig, fn func(i int) (round, error)) ([]round, error) {
	start := time.Now()
	var rounds []round
	var lengths []float64
	for i := 0; ; i++ {
		next := time.Duration(median(lengths) * float64(time.Second))
		if i >= cfg.params.minRounds && time.Since(start)+next > cfg.window {
			return rounds, nil
		}
		if err := ctx.Err(); err != nil {
			return rounds, err
		}
		// Start every round from a collected heap, so one round's
		// garbage is not charged to the next.
		runtime.GC()
		t0 := time.Now()
		r, err := fn(i)
		if err != nil {
			return rounds, err
		}
		length := time.Since(t0)
		lengths = append(lengths, length.Seconds())
		rounds = append(rounds, r)
		cfg.logf("round %d: setup %.4fs wall %.4fs cpu %.3fs rss %.1fMB (round %.3fs)",
			i, r.setup.Seconds(), r.wall.Seconds(), r.cpu.Seconds(), r.rssMB, length.Seconds())
	}
}

// setEndToEnd records the end-to-end metrics of a run: medians over
// its rounds, with trials the number of trials one round completes.
func (r *report) setEndToEnd(rounds []round, trials int) {
	var setup, wall, cpu, rss []float64
	for _, rd := range rounds {
		setup = append(setup, rd.setup.Seconds())
		wall = append(wall, rd.wall.Seconds())
		cpu = append(cpu, rd.cpu.Seconds())
		rss = append(rss, rd.rssMB)
	}
	w := median(wall)
	r.set("wall_s", w)
	r.set("setup_s", median(setup))
	r.set("cpu_s", median(cpu))
	r.set("trials_per_s", float64(trials)/w)
	r.set("peak_rss_mb", median(rss))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// processCPU is the user+sys CPU time the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS counter (VmHWM) at the
// current resident size, so peakRSSMB reports the peak of one round.
// Without /proc/self/clear_refs the peak stays the process lifetime's.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is the peak resident set size in MiB since the last
// resetPeakRSS (VmHWM), or since process start (getrusage maxrss).
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// environment is recorded next to every result.
func environment(workload string, seed uint64, trace bool) map[string]any {
	return map[string]any{
		"env": map[string]any{
			"workload":   workload,
			"seed":       seed,
			"trace":      trace,
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
			"cpu":        cpuModel(),
		},
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// engineStats collects the engine's Progress timestamps across one or
// more engine runs: per-trial elapsed times, and for each run the
// straggler tail from the (N−workers)-th completion to the last.
type engineStats struct {
	mu      sync.Mutex
	elapsed []float64 // ms
	busy    time.Duration
	tail    time.Duration
	wall    time.Duration

	runStart time.Time
	done     []time.Duration // completion offsets of the current run
}

// begin starts one engine run and returns its Progress callback.
func (e *engineStats) begin() func(engine.Progress) {
	e.mu.Lock()
	e.runStart = time.Now()
	e.done = e.done[:0]
	e.mu.Unlock()
	return e.progress
}

func (e *engineStats) progress(p engine.Progress) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.elapsed = append(e.elapsed, float64(p.Elapsed)/1e6)
	e.busy += p.Elapsed
	e.done = append(e.done, time.Since(e.runStart))
}

// end closes the run started by begin, executed on workers goroutines.
func (e *engineStats) end(workers int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := len(e.done)
	if n == 0 {
		return
	}
	sort.Slice(e.done, func(i, j int) bool { return e.done[i] < e.done[j] })
	k := n - workers
	if k < 1 {
		k = 1
	}
	e.tail += e.done[n-1] - e.done[k-1]
	e.wall += time.Duration(workers) * e.done[n-1]
}

// set records the engine.* metrics; the drain tail is per round.
func (e *engineStats) set(r *report, rounds int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r.set("engine.trial_p50_ms", quantile(e.elapsed, 0.5))
	r.set("engine.trial_p99_ms", quantile(e.elapsed, 0.99))
	r.set("engine.trial_max_ms", quantile(e.elapsed, 1))
	if e.wall > 0 {
		r.set("engine.busy_ratio", float64(e.busy)/float64(e.wall))
	}
	r.set("engine.drain_tail_s", e.tail.Seconds()/float64(rounds))
}
