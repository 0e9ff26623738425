package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"scalefree/internal/rng"
)

func makeTrials(n int) []Trial {
	trials := make([]Trial, n)
	for i := range trials {
		trials[i] = Trial{
			Index: i,
			Key:   fmt.Sprintf("trial-%d", i),
			Seed:  rng.DeriveSeed(99, uint64(i)),
		}
	}
	return trials
}

// run one deterministic "workload": a few draws from the per-trial RNG
// mixed with the trial identity.
func workload(_ context.Context, t Trial, r *rng.RNG) (uint64, error) {
	sum := uint64(t.Index)
	for i := 0; i < 100; i++ {
		sum += r.Uint64()
	}
	return sum, nil
}

func TestRunResultsInTrialOrder(t *testing.T) {
	trials := makeTrials(50)
	got, err := Run(context.Background(), trials, Options{Workers: 1}, workload)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		want, _ := workload(context.Background(), trials[i], rng.New(trials[i].Seed))
		if v != want {
			t.Errorf("result[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestRunWorkerCountInvariance(t *testing.T) {
	trials := makeTrials(97)
	serial, err := Run(context.Background(), trials, Options{Workers: 1}, workload)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16, 200} {
		parallel, err := Run(context.Background(), trials, Options{Workers: workers}, workload)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Fatalf("workers=%d diverged at trial %d: %d != %d",
					workers, i, parallel[i], serial[i])
			}
		}
	}
}

func TestRunPerTrialRNGSeededFromTrialSeed(t *testing.T) {
	trials := makeTrials(8)
	got, err := Run(context.Background(), trials, Options{Workers: 4},
		func(_ context.Context, _ Trial, r *rng.RNG) (uint64, error) {
			return r.Uint64(), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range trials {
		if want := rng.New(tr.Seed).Uint64(); got[i] != want {
			t.Errorf("trial %d RNG not seeded from Trial.Seed: %d != %d", i, got[i], want)
		}
	}
}

func TestRunErrorCarriesTrialKey(t *testing.T) {
	trials := makeTrials(10)
	boom := errors.New("boom")
	_, err := Run(context.Background(), trials, Options{Workers: 1},
		func(_ context.Context, t Trial, _ *rng.RNG) (int, error) {
			if t.Index == 3 {
				return 0, boom
			}
			return t.Index, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("error chain lost the cause: %v", err)
	}
	if want := "trial-3"; err == nil || !contains(err.Error(), want) {
		t.Fatalf("error %q does not name the failing trial %q", err, want)
	}
}

func TestRunErrorCancelsRemainingTrials(t *testing.T) {
	trials := makeTrials(100)
	var ran sync.Map
	// Every trial but 0 holds its worker until the failure's cancel
	// lands, so no worker can finish the whole list first. The shared
	// timeout only bounds the test if cancellation never arrives.
	wait, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	_, err := Run(context.Background(), trials, Options{Workers: 2},
		func(ctx context.Context, t Trial, _ *rng.RNG) (int, error) {
			ran.Store(t.Index, true)
			if t.Index == 0 {
				return 0, errors.New("early failure")
			}
			select {
			case <-ctx.Done():
			case <-wait.Done():
			}
			return t.Index, nil
		})
	if err == nil {
		t.Fatal("expected error")
	}
	count := 0
	ran.Range(func(_, _ any) bool { count++; return true })
	if count == len(trials) {
		t.Error("failure did not stop trial scheduling: every trial still ran")
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	trials := makeTrials(20)
	ran := 0
	_, err := Run(ctx, trials, Options{Workers: 1},
		func(_ context.Context, t Trial, _ *rng.RNG) (int, error) {
			ran++
			if t.Index == 2 {
				cancel()
			}
			return t.Index, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran >= len(trials) {
		t.Error("cancellation did not stop trial scheduling")
	}
}

// TestRunPrefersRealErrorOverCancellationEcho pins the root-cause
// reporting rule: a context-aware trial that returns ctx.Err() after
// another trial's failure cancelled the run must not mask that failure,
// even when it sits at a lower index.
func TestRunPrefersRealErrorOverCancellationEcho(t *testing.T) {
	trials := makeTrials(2)
	boom := errors.New("root cause")
	_, err := Run(context.Background(), trials, Options{Workers: 2},
		func(ctx context.Context, tr Trial, _ *rng.RNG) (int, error) {
			if tr.Index == 0 {
				// Context-aware trial: blocks until the run is cancelled,
				// then echoes the cancellation.
				<-ctx.Done()
				return 0, ctx.Err()
			}
			return 0, boom
		})
	if !errors.Is(err, boom) {
		t.Fatalf("cancellation echo masked the root cause: %v", err)
	}
}

func TestRunPanicBecomesError(t *testing.T) {
	trials := makeTrials(4)
	_, err := Run(context.Background(), trials, Options{Workers: 2},
		func(_ context.Context, t Trial, _ *rng.RNG) (int, error) {
			if t.Index == 1 {
				panic("kaboom")
			}
			return t.Index, nil
		})
	if err == nil || !contains(err.Error(), "kaboom") {
		t.Fatalf("panic not converted to error: %v", err)
	}
}

func TestRunProgressStream(t *testing.T) {
	trials := makeTrials(30)
	var events []Progress
	_, err := Run(context.Background(), trials, Options{
		Workers:  4,
		Progress: func(p Progress) { events = append(events, p) },
	}, workload)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(trials) {
		t.Fatalf("got %d progress events, want %d", len(events), len(trials))
	}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != len(trials) {
			t.Errorf("event %d: Done=%d Total=%d, want Done=%d Total=%d",
				i, ev.Done, ev.Total, i+1, len(trials))
		}
	}
}

func TestRunEmptyPlan(t *testing.T) {
	got, err := Run(context.Background(), nil, Options{}, workload)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty plan: got %v, %v", got, err)
	}
}

func TestEffectiveWorkers(t *testing.T) {
	if w := (Options{Workers: 8}).effectiveWorkers(3); w != 3 {
		t.Errorf("workers capped at trials: got %d, want 3", w)
	}
	if w := (Options{Workers: 2}).effectiveWorkers(100); w != 2 {
		t.Errorf("explicit workers: got %d, want 2", w)
	}
	if w := (Options{}).effectiveWorkers(100); w < 1 {
		t.Errorf("default workers: got %d, want >= 1", w)
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// TestRunScratchPerWorkerScratch verifies the scratch contract: the
// factory runs once per worker goroutine, every trial receives a
// non-nil scratch, and results match the scratch-free path.
func TestRunScratchPerWorkerScratch(t *testing.T) {
	type scratch struct{ uses int }
	trials := make([]Trial, 64)
	for i := range trials {
		trials[i] = Trial{Index: i, Key: "t", Seed: rng.DeriveSeed(9, uint64(i))}
	}
	const workers = 4
	var mu sync.Mutex
	made := 0
	results, err := RunScratch(context.Background(), trials, Options{Workers: workers},
		func() *scratch {
			mu.Lock()
			made++
			mu.Unlock()
			return &scratch{}
		},
		func(_ context.Context, tr Trial, r *rng.RNG, s *scratch) (uint64, error) {
			if s == nil {
				t.Error("trial received nil scratch")
				return 0, nil
			}
			s.uses++
			return r.Uint64(), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if made != workers {
		t.Errorf("scratch factory ran %d times, want one per worker (%d)", made, workers)
	}
	want, err := Run(context.Background(), trials, Options{Workers: 1},
		func(_ context.Context, tr Trial, r *rng.RNG) (uint64, error) { return r.Uint64(), nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if results[i] != want[i] {
			t.Fatalf("trial %d: scratch path %d != scratch-free path %d", i, results[i], want[i])
		}
	}
}
