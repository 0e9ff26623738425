package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"time"

	"scalefree/internal/core"
	"scalefree/internal/engine"
	"scalefree/internal/experiment"
	"scalefree/internal/obs/trace"
	"scalefree/internal/rng"
)

// renderTables writes an experiment's tables as the experiments CLI
// prints them, headed by the experiment ID.
func renderTables(w io.Writer, id string, tables []experiment.Table) error {
	fmt.Fprintf(w, "== %s\n", id)
	for i := range tables {
		if err := tables[i].Render(w); err != nil {
			return err
		}
	}
	return nil
}

// tablesDigest hashes one experiment's rendered tables.
func tablesDigest(id string, tables []experiment.Table) (string, error) {
	h := sha256.New()
	if err := renderTables(h, id, tables); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// sweepRun is one benchmark-composed sweep: each experiment planned with
// Experiment.Plan, its trials run on the engine, and its results
// reduced with Plan.Reduce, in registry order as `experiments -run all`
// does.
type sweepRun struct {
	digests  []string // per experiment, of the rendered tables
	results  [][]any  // per experiment, the positional trial results
	wall     []time.Duration
	plan     time.Duration
	reduce   time.Duration
	trials   int
	maxTrial int // largest plan, in trials
}

// digest hashes the whole sweep's tables.
func (s sweepRun) digest() string {
	h := sha256.New()
	for _, d := range s.digests {
		io.WriteString(h, d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// planSweep plans every experiment at cfg.
func planSweep(exps []experiment.Experiment, cfg experiment.Config) ([]*experiment.Plan, sweepRun, error) {
	run := sweepRun{
		digests: make([]string, len(exps)),
		results: make([][]any, len(exps)),
		wall:    make([]time.Duration, len(exps)),
	}
	t0 := time.Now()
	plans := make([]*experiment.Plan, len(exps))
	for i, e := range exps {
		p, err := e.Plan(cfg)
		if err != nil {
			return nil, run, fmt.Errorf("%s: planning: %w", e.ID, err)
		}
		plans[i] = p
		run.trials += len(p.Trials)
		run.maxTrial = max(run.maxTrial, len(p.Trials))
	}
	run.plan = time.Since(t0)
	return plans, run, nil
}

// execSweep runs planned experiments on the engine and reduces them.
// A non-nil recorder traces the trials and brackets each Reduce with a
// span on the control lane, as Experiment.RunContext does.
func execSweep(ctx context.Context, exps []experiment.Experiment, plans []*experiment.Plan, run *sweepRun,
	workers int, rec *trace.Recorder, stats *engineStats) error {
	for i, e := range exps {
		t0 := time.Now()
		opts := engine.Options{Workers: workers, Trace: rec}
		if stats != nil {
			opts.Progress = stats.begin()
		}
		results, err := engine.RunScratch(ctx, plans[i].Trials, opts, core.NewScratch, plans[i].Run)
		if stats != nil {
			stats.end(workers)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		t1 := time.Now()
		rec.Emit(trace.Record{Ph: 'B', Name: "reduce " + e.ID, Cat: "reduce"})
		tables, err := plans[i].Reduce(results)
		rec.Emit(trace.Record{Ph: 'E'})
		run.reduce += time.Since(t1)
		if err != nil {
			return fmt.Errorf("%s: reducing: %w", e.ID, err)
		}
		if run.digests[i], err = tablesDigest(e.ID, tables); err != nil {
			return fmt.Errorf("%s: rendering: %w", e.ID, err)
		}
		run.results[i] = results
		run.wall[i] = time.Since(t0)
	}
	return nil
}

// spanTotals sums the durations of closed spans by name, matching B/E
// pairs per lane in record order.
func spanTotals(recs []trace.Record) map[string]time.Duration {
	type open struct {
		name string
		ts   int64
	}
	stacks := map[int32][]open{}
	totals := map[string]time.Duration{}
	for _, r := range recs {
		switch r.Ph {
		case 'B':
			stacks[r.TID] = append(stacks[r.TID], open{r.Name, r.TS})
		case 'E':
			st := stacks[r.TID]
			if len(st) == 0 {
				continue
			}
			top := st[len(st)-1]
			stacks[r.TID] = st[:len(st)-1]
			totals[top.name] += time.Duration(r.TS - top.ts)
		}
	}
	return totals
}

// sweepConfig is the experiment configuration of round i: the sweeps
// draw every round's seed from the run's seed, so rounds hold fresh
// inputs and the median round is not set by one seed's stragglers.
func sweepConfig(cfg runConfig, i int) experiment.Config {
	return experiment.Config{Seed: rng.DeriveSeed(cfg.seed, uint64(i)), Scale: cfg.params.scale}
}

// runPaperSweep measures experiments E1–E13 in process, with no cache,
// at params.scale: every round plans, runs and reduces the whole sweep
// with one engine worker per core, on the round's own seed. In the
// traced run, rounds come in pairs on the same seed, untraced then
// traced, so the tracing overhead is measured on equal inputs; the
// per-layer numbers come from the traced rounds. After the window,
// Experiment.RunContext re-runs round 0 and must render the same
// tables.
func runPaperSweep(ctx context.Context, cfg runConfig) (*report, error) {
	exps := experiment.Registry()
	rep := newReport()
	var (
		measured       []round // untraced rounds
		untracedWall   float64
		overhead       []float64
		stats          engineStats
		planS, reduceS []float64
		expWall        = make([][]float64, len(exps))
		phases         = map[string]time.Duration{}
		tracedRounds   int
		dropped        int64
		trialsPerRound int
		round0         []string
	)
	_, err := repeat(ctx, cfg, func(i int) (round, error) {
		traced, seedRound := false, i
		if cfg.trace {
			traced, seedRound = i%2 == 1, i/2
		}
		clock := startRound()
		plans, run, err := planSweep(exps, sweepConfig(cfg, seedRound))
		if err != nil {
			return round{}, err
		}
		var rec *trace.Recorder
		var st *engineStats
		if traced {
			rec = trace.New()
			// Room for every record of the largest plan (a trial span
			// and three phase spans, two records each) on one lane.
			rec.WriterCap = 16*run.maxTrial + 64
			st = &stats
		}
		trialsPerRound = run.trials
		clock.dispatched()
		err = execSweep(ctx, exps, plans, &run, cfg.workers, rec, st)
		rd := clock.finish()
		rep.attempted += run.trials
		if err != nil {
			rep.problem(run.trials, "round %d: %v", i, err)
		} else if i == 0 {
			round0 = run.digests
			rep.digest = run.digest()
			cfg.logf("paper-sweep seed=%d E1 digest=%s", cfg.seed, run.digests[0])
		}
		if !traced {
			measured = append(measured, rd)
			untracedWall = rd.wall.Seconds()
			return rd, nil
		}
		tracedRounds++
		overhead = append(overhead, rd.wall.Seconds()/untracedWall-1)
		planS = append(planS, run.plan.Seconds())
		reduceS = append(reduceS, run.reduce.Seconds())
		for k := range exps {
			expWall[k] = append(expWall[k], run.wall[k].Seconds())
		}
		dropped += rec.Dropped()
		for name, d := range spanTotals(rec.Drain()) {
			phases[name] += d
		}
		return rd, nil
	})
	if err != nil {
		return nil, err
	}
	if len(measured) == 0 {
		return rep, nil
	}
	rep.setEndToEnd(measured, trialsPerRound)
	if round0 != nil {
		checkRunContext(ctx, cfg, exps, round0, rep)
	}
	if tracedRounds == 0 {
		return rep, nil
	}
	if dropped > 0 {
		rep.problem(rep.attempted, "the traced rounds dropped %d trace records; per-layer numbers are incomplete", dropped)
	}
	rep.set("trace.dropped", float64(dropped))
	rep.set("trace.overhead_ratio", median(overhead))
	rep.set("experiment.plan_s", median(planS))
	rep.set("experiment.reduce_s", median(reduceS))
	for k, e := range exps {
		rep.set("experiment.wall_s."+e.ID, median(expWall[k]))
	}
	var reduceSpans time.Duration
	for name, d := range phases {
		if strings.HasPrefix(name, "reduce ") {
			reduceSpans += d
		}
	}
	per := float64(tracedRounds)
	rep.set("phase.generate_s", phases["generate"].Seconds()/per)
	rep.set("phase.freeze_s", phases["freeze"].Seconds()/per)
	rep.set("phase.search_s", phases["search"].Seconds()/per)
	rep.set("phase.reduce_s", reduceSpans.Seconds()/per)
	stats.set(rep, tracedRounds)
	return rep, nil
}

// checkRunContext runs round 0's sweep through Experiment.RunContext,
// the path the experiments CLI takes, and compares its tables with the
// benchmark-composed ones.
func checkRunContext(ctx context.Context, cfg runConfig, exps []experiment.Experiment, want []string, rep *report) {
	ecfg := sweepConfig(cfg, 0)
	for i, e := range exps {
		tables, err := e.RunContext(ctx, ecfg, engine.Options{Workers: cfg.workers})
		if err == nil {
			var d string
			if d, err = tablesDigest(e.ID, tables); err == nil && d != want[i] {
				err = fmt.Errorf("tables differ from the benchmark-composed run (digest %s, want %s)", d, want[i])
			}
		}
		if err != nil {
			rep.problem(rep.attempted, "%s through RunContext: %v", e.ID, err)
		}
	}
}
