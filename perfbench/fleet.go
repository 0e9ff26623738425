package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scalefree/internal/engine"
	"scalefree/internal/experiment"
	"scalefree/internal/obs"
	"scalefree/internal/obs/trace"
	"scalefree/internal/sweep"
)

// countingListener counts the bytes its accepted connections carry in
// both directions: the coordinator's view of the wire.
type countingListener struct {
	net.Listener
	bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &l.bytes}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.Add(int64(k))
	return k, err
}

// eventSink receives the coordinator's JSONL event log. It stamps each
// line on arrival and marks the round's first dispatch at the first
// lease grant; the lines are parsed only after the round.
type eventSink struct {
	mu      sync.Mutex
	onGrant func()
	lines   [][]byte
	at      []time.Time
}

var grantTag = []byte(`"event":"lease_grant"`)

func (s *eventSink) Write(p []byte) (int, error) {
	now := time.Now()
	if bytes.Contains(p, grantTag) {
		s.onGrant()
	}
	s.mu.Lock()
	s.lines = append(s.lines, append([]byte(nil), p...))
	s.at = append(s.at, now)
	s.mu.Unlock()
	return len(p), nil
}

// leases summarises the lease lifecycle: grants, completions, and the
// grant→COMPLETE latency of each completed lease.
type leaseSummary struct {
	granted, completed int
	latencyMs          []float64
	held               time.Duration // summed lease lifetimes
}

func (s *eventSink) leases() (leaseSummary, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out leaseSummary
	granted := map[uint64]time.Time{}
	for i, line := range s.lines {
		var e obs.Event
		if err := json.Unmarshal(bytes.TrimSpace(line), &e); err != nil {
			return out, fmt.Errorf("parsing the event log: %w", err)
		}
		switch e.Event {
		case "lease_grant":
			out.granted++
			granted[e.Lease] = s.at[i]
		case "lease_complete":
			out.completed++
			if t, ok := granted[e.Lease]; ok {
				d := s.at[i].Sub(t)
				out.latencyMs = append(out.latencyMs, float64(d)/1e6)
				out.held += d
			}
		}
	}
	return out, nil
}

// fleetProgress gathers both workers' engine Progress reports.
type fleetProgress struct {
	mu      sync.Mutex
	elapsed []float64 // ms
	busy    time.Duration
	done    []time.Time
}

func (f *fleetProgress) progress(p engine.Progress) {
	now := time.Now()
	f.mu.Lock()
	f.elapsed = append(f.elapsed, float64(p.Elapsed)/1e6)
	f.busy += p.Elapsed
	f.done = append(f.done, now)
	f.mu.Unlock()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

const fleetWorkers = 2

// fleetRound is what one coordinated sweep measured.
type fleetRound struct {
	round
	leases   leaseSummary
	wire     int64
	cache    int64
	progress *fleetProgress
	dropped  int64
	checkErr error // wrong tables or a failed worker
}

// coordinatedE1 runs one coordinated sweep of exps on a loopback
// listener owned by the benchmark, served by two in-process
// experiment.SweepWorkers, each with engine Workers=1, the default
// chunk size and its own cold result cache. A non-empty want is the
// digest the tables must reproduce.
func coordinatedE1(ctx context.Context, cfg runConfig, exps []experiment.Experiment, ecfg experiment.Config, want string, traced bool) (fleetRound, error) {
	var fr fleetRound
	clock := startRound()
	dir, err := os.MkdirTemp(cfg.tmp, "fleet-")
	if err != nil {
		return fr, err
	}
	defer os.RemoveAll(dir)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fr, err
	}
	cl := &countingListener{Listener: lis}
	sink := &eventSink{onGrant: clock.dispatched}
	copts := sweep.CoordOptions{Events: obs.NewEventLog(sink)}
	var recs []*trace.Recorder
	if traced {
		copts.Trace = trace.New()
		copts.Trace.ProcName = "coordinator"
		recs = append(recs, copts.Trace)
	}
	fr.progress = &fleetProgress{}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, fleetWorkers)
	for w := 0; w < fleetWorkers; w++ {
		cache, err := sweep.OpenCache(filepath.Join(dir, fmt.Sprintf("cache-w%d", w+1)))
		if err != nil {
			cl.Close()
			return fr, err
		}
		eopts := engine.Options{Workers: 1, Progress: fr.progress.progress}
		wopts := sweep.WorkerOptions{Name: fmt.Sprintf("w%d", w+1)}
		if traced {
			// Disabled until the first traced LEASE arrives.
			rec := trace.New()
			rec.SetEnabled(false)
			eopts.Trace, wopts.Trace = rec, rec
			recs = append(recs, rec)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[w] = experiment.SweepWorker(wctx, exps, ecfg, cl.Addr().String(), eopts, cache, wopts)
		}()
	}
	tables, err := experiment.CoordinateSweep(ctx, exps, ecfg, cl, copts)
	if err != nil {
		cancel()
		wg.Wait()
		return fr, err
	}
	got, err := tablesDigest(exps[0].ID, tables[0])
	if err != nil {
		cancel()
		wg.Wait()
		return fr, err
	}
	fr.round = clock.finish()
	wg.Wait()
	if want != "" && got != want {
		fr.checkErr = fmt.Errorf("coordinated %s tables differ from the local run (digest %s, want %s)", exps[0].ID, got, want)
	}
	for _, e := range errs {
		if e != nil && fr.checkErr == nil {
			fr.checkErr = e
		}
	}
	if fr.leases, err = sink.leases(); err != nil {
		return fr, err
	}
	fr.wire = cl.bytes.Load()
	if fr.cache, err = dirBytes(dir); err != nil {
		return fr, err
	}
	for _, r := range recs {
		fr.dropped += r.Dropped()
	}
	return fr, nil
}

// runFleetSweep measures the sweep layer: E1 at params.scale through
// experiment.CoordinateSweep, served by two in-process workers over
// two loopback connections, on the round's own seed (sweepConfig).
// Set-up covers plan construction, the listener, the workers' caches
// and handshakes, up to the first lease granted. Before the rounds,
// round 0's E1 runs once locally, benchmark-composed as in paper-sweep:
// the coordinated round 0 must reproduce its tables, and its results
// feed the codec metrics.
func runFleetSweep(ctx context.Context, cfg runConfig) (*report, error) {
	e1, ok := experiment.ByID("E1")
	if !ok {
		return nil, fmt.Errorf("experiment E1 is not registered")
	}
	exps := []experiment.Experiment{e1}
	plans, ref, err := planSweep(exps, sweepConfig(cfg, 0))
	if err != nil {
		return nil, err
	}
	if err := execSweep(ctx, exps, plans, &ref, cfg.workers, nil, nil); err != nil {
		return nil, fmt.Errorf("local reference run: %w", err)
	}
	rep := newReport()
	rep.digest = ref.digests[0]
	trials := ref.trials

	var (
		measured             []round
		leaseMs              []float64
		granted, completed   int
		wire, cache, dropped int64
		held, busyWall       time.Duration
		elapsed              []float64
		busy, tail           time.Duration
		firstGranted         int
	)
	_, err = repeat(ctx, cfg, func(i int) (round, error) {
		want := ""
		if i == 0 {
			want = rep.digest
		}
		fr, err := coordinatedE1(ctx, cfg, exps, sweepConfig(cfg, i), want, cfg.trace)
		rep.attempted += trials
		if err != nil {
			rep.problem(trials, "round %d: %v", i, err)
			return fr.round, nil
		}
		if fr.checkErr != nil {
			rep.problem(trials, "round %d: %v", i, fr.checkErr)
		}
		if i == 0 {
			firstGranted = fr.leases.granted
		} else if fr.leases.granted != firstGranted {
			rep.problem(trials, "round %d: %d leases granted, round 0 granted %d", i, fr.leases.granted, firstGranted)
		}
		measured = append(measured, fr.round)
		granted += fr.leases.granted
		completed += fr.leases.completed
		leaseMs = append(leaseMs, fr.leases.latencyMs...)
		held += fr.leases.held
		wire += fr.wire
		cache += fr.cache
		dropped += fr.dropped
		busyWall += fleetWorkers * fr.wall
		p := fr.progress
		elapsed = append(elapsed, p.elapsed...)
		busy += p.busy
		if n := len(p.done); n > 0 {
			sort.Slice(p.done, func(a, b int) bool { return p.done[a].Before(p.done[b]) })
			tail += p.done[n-1].Sub(p.done[max(n-fleetWorkers, 1)-1])
		}
		return fr.round, nil
	})
	if err != nil {
		return nil, err
	}
	if len(measured) == 0 {
		return rep, nil
	}
	rep.setEndToEnd(measured, trials)
	if cfg.trace && dropped > 0 {
		rep.problem(rep.attempted, "the traced rounds dropped %d trace records; per-layer numbers are incomplete", dropped)
	}
	per := float64(len(measured))
	allTrials := per * float64(trials)
	rep.set("trace.dropped", float64(dropped))
	rep.set("sweep.leases_granted", float64(firstGranted))
	if granted > 0 {
		rep.set("sweep.useful_lease_ratio", float64(completed)/float64(granted))
	}
	rep.set("sweep.lease_p50_ms", quantile(leaseMs, 0.5))
	rep.set("sweep.lease_p99_ms", quantile(leaseMs, 0.99))
	rep.set("sweep.wire_bytes_per_trial", float64(wire)/allTrials)
	rep.set("sweep.cache_bytes_per_trial", float64(cache)/allTrials)
	if busyWall > 0 {
		rep.set("sweep.worker_busy_ratio", float64(held)/float64(busyWall))
		rep.set("engine.busy_ratio", float64(busy)/float64(busyWall))
	}
	rep.set("engine.trial_p50_ms", quantile(elapsed, 0.5))
	rep.set("engine.trial_p99_ms", quantile(elapsed, 0.99))
	rep.set("engine.trial_max_ms", quantile(elapsed, 1))
	rep.set("engine.drain_tail_s", tail.Seconds()/per)
	if err := setCodecMetrics(rep, ref.results[0]); err != nil {
		rep.problem(rep.attempted, "codec: %v", err)
	}
	return rep, nil
}

// setCodecMetrics times sweep.EncodeResult and sweep.DecodeResult over
// the reference run's results and checks that every result survives
// the round trip byte for byte.
func setCodecMetrics(rep *report, results []any) error {
	var encNs, decNs, size int64
	for i, v := range results {
		t0 := time.Now()
		b, err := sweep.EncodeResult(v)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("encoding result %d: %w", i, err)
		}
		back, err := sweep.DecodeResult(b)
		t2 := time.Now()
		if err != nil {
			return fmt.Errorf("decoding result %d: %w", i, err)
		}
		again, err := sweep.EncodeResult(back)
		if err != nil || !bytes.Equal(again, b) {
			return fmt.Errorf("result %d does not survive an encode/decode round trip", i)
		}
		encNs += t1.Sub(t0).Nanoseconds()
		decNs += t2.Sub(t1).Nanoseconds()
		size += int64(len(b))
	}
	n := float64(len(results))
	rep.set("sweep.codec_bytes_per_trial", float64(size)/n)
	rep.set("sweep.codec_encode_ns", float64(encNs)/n)
	rep.set("sweep.codec_decode_ns", float64(decNs)/n)
	return nil
}
