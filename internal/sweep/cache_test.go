package sweep

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"scalefree/internal/engine"
)

// lookupTrial consults an optional cache for one trial; a nil cache
// always misses.
func lookupTrial(c *Cache, expID, fingerprint string, t engine.Trial) (any, bool) {
	if c == nil {
		return nil, false
	}
	return c.Get(CacheKey(expID, fingerprint, t))
}

// storeTrial persists one trial result to an optional cache; a nil
// cache stores nothing.
func storeTrial(c *Cache, expID, fingerprint string, t engine.Trial, v any) error {
	if c == nil {
		return nil
	}
	return c.Put(CacheKey(expID, fingerprint, t), fingerprint, v)
}

// segmentPaths lists the segment files in a cache directory.
func segmentPaths(t testing.TB, dir string) []string {
	t.Helper()
	names, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, len(names))
	for i, name := range names {
		paths[i] = filepath.Join(dir, name)
	}
	return paths
}

// putSeparately stores float64(i) under keys[i], each through its own
// handle on dir, and returns the segment each Put created.
func putSeparately(t *testing.T, dir, fingerprint string, keys []string) []string {
	t.Helper()
	segs := make([]string, len(keys))
	for i, key := range keys {
		w, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Put(key, fingerprint, float64(i)); err != nil {
			t.Fatal(err)
		}
		segs[i] = filepath.Join(dir, w.writers[fingerprint].name)
	}
	return segs
}

func testKeys(n int) ([]string, Job) {
	trials := makeTrials(n)
	job := testJob(trials)
	keys := make([]string, n)
	for i, tr := range trials {
		keys[i] = CacheKey(job.ExpID, job.Fingerprint, tr)
	}
	return keys, job
}

// TestCacheHandlesShareDir: two handles on one directory see each
// other's writes — what shard processes sharing a -cache dir rely on.
func TestCacheHandlesShareDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	a, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if segs := segmentPaths(t, dir); len(segs) != 0 {
		t.Fatalf("OpenCache created %d segments, want none", len(segs))
	}
	keys, job := testKeys(4)
	if err := a.Put(keys[0], job.Fingerprint, 1.5); err != nil {
		t.Fatal(err)
	}
	if v, ok := b.Get(keys[0]); !ok || v != 1.5 {
		t.Fatalf("Put through one handle: other handle Get = %v, %v; want 1.5, true", v, ok)
	}
	if err := b.Put(keys[1], job.Fingerprint, 2.5); err != nil {
		t.Fatal(err)
	}
	if v, ok := a.Get(keys[1]); !ok || v != 2.5 {
		t.Fatalf("reverse direction: Get = %v, %v; want 2.5, true", v, ok)
	}
	// Appends after a handle's last refresh are read incrementally.
	for i := 2; i < 4; i++ {
		if err := a.Put(keys[i], job.Fingerprint, float64(i)); err != nil {
			t.Fatal(err)
		}
		if v, ok := b.Get(keys[i]); !ok || v != float64(i) {
			t.Errorf("appended entry %d: Get = %v, %v", i, v, ok)
		}
	}
	if segs := segmentPaths(t, dir); len(segs) != 2 {
		t.Errorf("two writing handles left %d segments, want 2", len(segs))
	}
	if n, err := a.Len(); err != nil || n != 4 {
		t.Errorf("Len = %d, %v; want 4", n, err)
	}
}

// TestCacheTornSegment: a segment cut mid-record keeps every earlier
// record readable, the torn record is a miss that a later refresh
// retries (it is not written off as corrupt), and another handle can
// still persist the torn key.
func TestCacheTornSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys, job := testKeys(3)
	for i, key := range keys {
		if err := c.Put(key, job.Fingerprint, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	seg := segmentPaths(t, dir)[0]
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(full) - 3
	if err := os.Truncate(seg, int64(cut)); err != nil {
		t.Fatal(err)
	}

	e, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if v, ok := e.Get(keys[i]); !ok || v != float64(i) {
			t.Errorf("record %d before the tear: Get = %v, %v", i, v, ok)
		}
	}
	if _, ok := e.Get(keys[2]); ok {
		t.Fatal("hit on torn record")
	}
	// The writer finishes its append: the same handle now reads it.
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[cut:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if v, ok := e.Get(keys[2]); !ok || v != 2.0 {
		t.Fatalf("completed tail: Get = %v, %v; want 2, true", v, ok)
	}

	// Torn for good: a new handle's Put of that key is what hits.
	if err := os.Truncate(seg, int64(cut)); err != nil {
		t.Fatal(err)
	}
	g, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Get(keys[2]); ok {
		t.Fatal("hit on torn record")
	}
	d, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(keys[2], job.Fingerprint, 9.0); err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]*Cache{"writer": d, "reader": g} {
		if v, ok := h.Get(keys[2]); !ok || v != 9.0 {
			t.Errorf("%s: re-put of torn key: Get = %v, %v; want 9, true", name, v, ok)
		}
	}
	if n, err := g.Len(); err != nil || n != 3 {
		t.Errorf("Len = %d, %v; want 3", n, err)
	}
}

// TestCacheConcurrentPut: Puts from many goroutines on one handle land
// as whole records in one segment. The race job runs this too.
func TestCacheConcurrentPut(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 40
	keys, job := testKeys(writers * each)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(keys); i += writers {
				if err := c.Put(keys[i], job.Fingerprint, float64(i)); err != nil {
					errs <- err
					return
				}
				if v, ok := c.Get(keys[i]); !ok || v != float64(i) {
					errs <- fmt.Errorf("Get(%d) right after Put = %v, %v", i, v, ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	fresh, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range keys {
		if v, ok := fresh.Get(key); !ok || v != float64(i) {
			t.Fatalf("entry %d through a fresh handle: %v, %v", i, v, ok)
		}
	}
	if segs := segmentPaths(t, dir); len(segs) != 1 {
		t.Errorf("one handle left %d segments, want 1", len(segs))
	}
	if n, err := c.Len(); err != nil || n != len(keys) {
		t.Errorf("Len = %d, %v; want %d", n, err, len(keys))
	}
}

// TestExecuteOneSegment: a sweep writes one file, not one per trial.
func TestExecuteOneSegment(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	trials := makeTrials(1000)
	if _, stats, err := Execute(context.Background(), testJob(trials), trials, engine.Options{Workers: 4}, cache, noScratch, trialFn); err != nil || stats.Executed != 1000 {
		t.Fatalf("Execute: %+v, %v", stats, err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || !isSegmentName(files[0].Name()) {
		t.Errorf("1000-trial sweep left %d files, want one segment", len(files))
	}
}

// FuzzCacheSegment: the segment decoder never panics on arbitrary
// bytes, allocates at most a bound proportional to its input, and
// reads back every record appendRecord framed — all of them whole, and
// after a cut, exactly those that end before it.
func FuzzCacheSegment(f *testing.F) {
	dir := f.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		f.Fatal(err)
	}
	keys, job := testKeys(4)
	for i, key := range keys {
		if err := c.Put(key, job.Fingerprint, float64(i)); err != nil {
			f.Fatal(err)
		}
	}
	seg, err := os.ReadFile(segmentPaths(f, dir)[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-5])
	f.Add(seg[:len(segmentHeader(job.Fingerprint))+recHeaderLen+2])
	f.Add([]byte(cacheMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes as a segment. The read buffer is the caller's,
		// so what scan itself allocates is the fingerprint string and
		// its small state. The fuzzing engine's own goroutines allocate
		// too, so the least of a few measurements is what counts.
		buf := make([]byte, len(data))
		var s *segment
		alloc := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s = &segment{}
			s.scan(bytes.NewReader(data), int64(len(data)), buf, func([]byte, int64, int) {})
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		if bound := uint64(len(data)) + 1024; alloc > bound {
			t.Errorf("scan of %d bytes allocated %d bytes, bound %d", len(data), alloc, bound)
		}
		if s.parsed > int64(len(data)) {
			t.Errorf("scan consumed %d of %d bytes", s.parsed, len(data))
		}

		// The input as record payloads: each byte b starts a payload of
		// the next b%64 bytes.
		type rec struct {
			key     string
			payload []byte
		}
		var recs []rec
		out := segmentHeader("fuzz-fingerprint")
		var ends []int
		for pos := 0; pos < len(data); {
			n := min(int(data[pos])%64, len(data)-pos-1)
			r := rec{key: fmt.Sprintf("%06x", len(recs)), payload: data[pos+1 : pos+1+n]}
			recs = append(recs, r)
			out = appendRecord(out, r.key, r.payload)
			ends = append(ends, len(out))
			pos += 1 + n
		}
		cut := len(out)
		if len(data) > 0 {
			cut = int(data[0]) * len(out) / 255
		}
		for _, size := range []int{len(out), cut} {
			var got []rec
			s := &segment{}
			s.scan(bytes.NewReader(out[:size]), int64(size), nil, func(key []byte, off int64, n int) {
				walkRecords(out[off:off+int64(n)], func(k, p []byte, _, _ int) {
					got = append(got, rec{key: string(k), payload: p})
				})
			})
			if !s.header && size >= len(segmentHeader("fuzz-fingerprint")) {
				t.Fatalf("size %d: valid header not parsed", size)
			}
			want := 0
			for want < len(ends) && ends[want] <= size {
				want++
			}
			if len(got) != want {
				t.Fatalf("size %d of %d: read %d records, want %d", size, len(out), len(got), want)
			}
			for i, r := range got {
				if r.key != recs[i].key || !bytes.Equal(r.payload, recs[i].payload) {
					t.Fatalf("record %d read back as %q/%x, wrote %q/%x", i, r.key, r.payload, recs[i].key, recs[i].payload)
				}
			}
			if s.dead {
				t.Fatalf("size %d: valid segment marked dead", size)
			}
		}
	})
}

// BenchmarkCachePut prices the cache per trial through Execute, with
// trials that cost nothing themselves: "cold" runs every trial and
// persists it into an empty cache (creating the segment included,
// opening the cache not), "warm" satisfies every trial from a full
// one.
func BenchmarkCachePut(b *testing.B) {
	const nTrials = 256
	trials := makeTrials(nTrials)
	job := testJob(trials)
	opts := engine.Options{Workers: 1}
	b.Run("cold", func(b *testing.B) {
		root := b.TempDir()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cache, err := OpenCache(filepath.Join(root, fmt.Sprint(i)))
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, stats, err := Execute(context.Background(), job, trials, opts, cache, noScratch, trialFn); err != nil || stats.Executed != nTrials {
				b.Fatalf("cold run: %+v, %v", stats, err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nTrials), "ns/trial")
	})
	b.Run("warm", func(b *testing.B) {
		cache, err := OpenCache(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := Execute(context.Background(), job, trials, opts, cache, noScratch, trialFn); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, stats, err := Execute(context.Background(), job, trials, opts, cache, noScratch, trialFn); err != nil || stats.CacheHits != nTrials {
				b.Fatalf("warm run: %+v, %v", stats, err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nTrials), "ns/trial")
	})
}
