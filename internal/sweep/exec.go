package sweep

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"scalefree/internal/engine"
	"scalefree/internal/obs/trace"
	"scalefree/internal/rng"
)

// Job names the plan slice an execution belongs to: the experiment and
// the fingerprint of the full plan the trials were drawn from. Cache
// addressing and shard-file headers both derive from it.
type Job struct {
	ExpID       string
	Fingerprint string
}

// Stats summarizes one Execute call. Executed + CacheHits equals the
// number of trials requested when the run completes; on error or
// cancellation it counts what actually happened, which is what resume
// tests assert on.
type Stats struct {
	// Executed counts trials that ran to completion: their function
	// returned a result and, when a cache is attached, the result was
	// persisted. Trials skipped by cancellation or aborted by the
	// failing trial are not counted.
	Executed int
	// CacheHits counts trials satisfied from the cache without running.
	CacheHits int
}

func (s Stats) String() string {
	return fmt.Sprintf("%d executed, %d cached", s.Executed, s.CacheHits)
}

// Execute runs a subset of a plan's trials — possibly all of them, or
// one shard's Filter output — on the engine, consulting an optional
// content-addressed cache per trial. Results come back keyed by plan
// trial index, so callers reassemble positional slices regardless of
// which subset ran where.
//
// Cache reads happen before the engine starts, as one batch: hits
// never occupy a worker and never appear in progress reporting
// (Progress.Total counts only trials that will actually run, keeping
// rate and ETA estimates honest). Cache writes happen inside the trial function, immediately
// after each trial completes — not after the run — so a cancelled
// sweep has persisted every finished trial and resumes exactly where
// it stopped. A failed cache write fails the trial: the caller asked
// for persistence, and a sweep that silently cannot resume is worse
// than a loud disk error.
//
// newScratch and fn follow engine.RunScratch's contract; fn's result
// must be a registered codec type whenever cache is non-nil.
//
//sf:wallclock — per-trial timing feeds the metrics registry only.
func Execute[S any](
	ctx context.Context,
	job Job,
	trials []engine.Trial,
	opts engine.Options,
	cache *Cache,
	newScratch func() S,
	fn func(ctx context.Context, t engine.Trial, r *rng.RNG, scratch S) (any, error),
) (map[int]any, Stats, error) {
	results := make(map[int]any, len(trials))
	var stats Stats

	run := trials
	// keys holds the cache key of each trial that runs, by plan index.
	var keys map[int]string
	if cache != nil {
		all := make([]string, len(trials))
		for i, t := range trials {
			all[i] = CacheKey(job.ExpID, job.Fingerprint, t)
		}
		cache.getAll(all, func(i int, v any) { results[trials[i].Index] = v })
		run = make([]engine.Trial, 0, len(trials))
		keys = make(map[int]string, len(trials))
		for i, t := range trials {
			if _, hit := results[t.Index]; hit {
				stats.CacheHits++
				continue
			}
			run = append(run, t)
			keys[t.Index] = all[i]
		}
		// Tag the timeline with the cache outcome for this batch: a
		// lease that resolved mostly from cache explains a short lease
		// span without guessing.
		if opts.Trace.Enabled() {
			opts.Trace.Emit(trace.Record{Ph: 'i', Name: "cache", Cat: "sweep",
				Arg: fmt.Sprintf("%s hits=%d misses=%d", job.ExpID, stats.CacheHits, len(run))})
		}
	}

	// Per-experiment instrumentation, resolved once per Execute call so
	// the hot path is a pure atomic add. Timing wraps only fn — the
	// latency histogram measures trial work, not cache persistence.
	var (
		trialsDone   = mTrialsCompleted.With(job.ExpID)
		trialsFailed = mTrialFailures.With(job.ExpID)
		trialSecs    = mTrialSeconds.With(job.ExpID)
	)
	var executed atomic.Int64
	wrapped := func(ctx context.Context, t engine.Trial, r *rng.RNG, scratch S) (any, error) {
		t0 := time.Now()
		v, err := fn(ctx, t, r, scratch)
		if err != nil {
			trialsFailed.Inc()
			return nil, err
		}
		trialSecs.ObserveDuration(time.Since(t0))
		if cache != nil {
			if err := cache.Put(keys[t.Index], job.Fingerprint, v); err != nil {
				return nil, fmt.Errorf("caching result: %w", err)
			}
		}
		executed.Add(1)
		trialsDone.Inc()
		return v, nil
	}
	ran, err := engine.RunScratch(ctx, run, opts, newScratch, wrapped)
	stats.Executed = int(executed.Load())
	if err != nil {
		// The engine returns no results on failure, but every trial
		// counted here completed (and, with a cache, was persisted)
		// before the cancellation — interruption tests assert on it.
		return nil, stats, err
	}
	for i, t := range run {
		results[t.Index] = ran[i]
	}
	return results, stats, nil
}
