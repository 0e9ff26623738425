package sweep

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cacheMagic heads every cache segment, followed by the uvarint codec
// version and the plan fingerprint every record in the segment was
// written under. Get never consults the fingerprint (the content
// address already pins it); it exists so GC can attribute each segment
// to the run that produced it.
const cacheMagic = "SFCACHE2"

// Segment files are <dir>/seg-<random>.sfc. Anything else in the cache
// directory — v1 per-entry files under <key[:2]>/, temp debris, stray
// files — is never read, and GC removes it.
const (
	segPrefix = "seg-"
	segSuffix = ".sfc"
)

// tempPrefix marks in-flight atomic writes of shard files. A cache
// never writes one; GC removes any it finds.
const tempPrefix = ".tmp-"

// Record framing: a little-endian uint32 body length, a little-endian
// uint32 CRC-32C over those four length bytes and the body, then the
// body itself — uvarint key length, key, encoded result payload.
const (
	recHeaderLen = 8
	// maxRecordBody bounds a record body. A length field above it can
	// only be corruption, and ends the read of that segment.
	maxRecordBody = 1 << 28
	// maxFingerprint bounds the header's fingerprint; real ones are 64
	// hex characters.
	maxFingerprint = 1 << 12
	// scanChunk is the read size of a segment scan, so an index refresh
	// over a large cache holds at most this much of it in memory.
	scanChunk = 1 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Cache is a content-addressed store of encoded trial results.
//
// Results live in append-only segment files. Each handle appends to
// one segment per plan fingerprint, created on that fingerprint's
// first Put; every Put is one write of one framed, checksummed record,
// so a trial is persisted as soon as Put returns. Handles never write
// each other's segments, so several handles — in one process or in
// shard processes sharing a directory — may use one cache at once.
//
// Get consults an in-memory index from key to record location (no
// payloads). On a miss it refreshes the index from the directory,
// reading only the bytes appended since the last refresh, so one
// handle sees another's writes. A record cut short at a segment's end
// (a writer mid-append, or one that died mid-write) is retried on a
// later refresh, never indexed.
//
// The cache is an optimization layer with a strict correctness rule:
// Get must only ever return a value that Put stored under the same
// content address. Unreadable, torn, checksum-failing or
// version-skewed records are misses, never errors — the trial simply
// re-executes and appends a fresh record. Keys that cannot come from
// CacheKey (shorter than 3 characters, or not lowercase hex) are a Get
// miss and a Put error.
type Cache struct {
	dir string
	// openedAt is the eviction watermark: segments written or touched
	// at or after it belong to the current run and EvictTo never
	// removes them (see EvictTo).
	openedAt time.Time

	mu sync.Mutex
	// segs holds every segment file this handle has seen, by name.
	segs map[string]*segment
	// index maps a key to the record holding its result.
	index map[string]recordLoc
	// writers maps a fingerprint to the segment Put appends to.
	writers map[string]*segment
	// gen numbers refreshes; a segment whose seen mark lags it has
	// vanished from the directory.
	gen uint64
	buf []byte
}

// segment is one segment file's parse state.
type segment struct {
	name string
	fp   string
	// parsed is the offset of the first byte not yet consumed: the
	// header and every complete record before it.
	parsed int64
	// size is the file size at the last scan: an abandoned segment's
	// torn tail is not re-read until the file grows.
	size   int64
	header bool // header parsed and valid
	// own marks the segment this handle appends to; Put indexes its
	// records directly, so refreshes skip it.
	own bool
	// dead marks a bad header or corrupt framing; never read again.
	dead bool
	seen uint64
}

// recordLoc locates one record: its segment, its offset and its framed
// length.
type recordLoc struct {
	seg *segment
	off int64
	n   int32
}

// OpenCache opens (creating if needed) a result cache rooted at dir.
// It creates no file: segments appear on the first Put.
//
//sf:wallclock — the eviction watermark is a real filesystem timestamp.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("sweep: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: opening cache: %w", err)
	}
	// Back the watermark off by a second so filesystems with coarse
	// timestamp granularity cannot round a segment this run just
	// touched to "before open".
	return &Cache{
		dir:      dir,
		openedAt: time.Now().Add(-time.Second),
		segs:     map[string]*segment{},
		index:    map[string]recordLoc{},
		writers:  map[string]*segment{},
	}, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// validKey reports whether key can address a cache entry: at least
// three characters of lowercase hex, the only form CacheKey produces.
func validKey(key string) bool {
	if len(key) < 3 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func isSegmentName(name string) bool {
	return strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix)
}

// Get looks a trial result up by content address. ok reports a hit;
// malformed keys and absent, torn, corrupt, version-skewed or
// undecodable records are misses.
func (c *Cache) Get(key string) (v any, ok bool) {
	c.getAll([]string{key}, func(_ int, x any) { v, ok = x, true })
	return v, ok
}

// getAll is Get for a batch of keys at one instant: the index is
// refreshed at most once, on the first miss, and each segment holding
// a hit is opened once and touched once. found receives each hit with
// its position in keys.
//
//sf:wallclock — hit-recency touches use real mtimes for eviction.
func (c *Cache) getAll(keys []string, found func(i int, v any)) {
	locs := make([]recordLoc, len(keys))
	c.mu.Lock()
	refreshed := false
	for i, key := range keys {
		if !validKey(key) {
			continue
		}
		loc, ok := c.index[key]
		if !ok && !refreshed {
			c.refresh()
			refreshed = true
			loc, ok = c.index[key]
		}
		if ok {
			locs[i] = loc
		}
	}
	c.mu.Unlock()

	files := map[*segment]*os.File{}
	for i, loc := range locs {
		if loc.seg == nil {
			mCacheMisses.Inc()
			continue
		}
		f, opened := files[loc.seg]
		if !opened {
			f, _ = os.Open(filepath.Join(c.dir, loc.seg.name))
			files[loc.seg] = f
		}
		v, err := readRecord(f, loc, keys[i])
		if err != nil {
			c.mu.Lock()
			if c.index[keys[i]] == loc {
				delete(c.index, keys[i])
			}
			c.mu.Unlock()
			mCacheMisses.Inc()
			continue
		}
		mCacheHits.Inc()
		found(i, v)
	}
	// Touch each segment read from, so eviction order tracks use, not
	// just writes — atime is unreliable (noatime mounts), so the mtime
	// doubles as the recency signal. Best-effort: a failed touch only
	// ages the segment.
	now := time.Now()
	for seg, f := range files {
		if f != nil {
			f.Close()
			os.Chtimes(filepath.Join(c.dir, seg.name), now, now)
		}
	}
}

// readRecord reads and verifies the record at loc in f and decodes its
// payload.
func readRecord(f *os.File, loc recordLoc, key string) (any, error) {
	if f == nil {
		return nil, fs.ErrNotExist
	}
	data := make([]byte, loc.n)
	if _, err := f.ReadAt(data, loc.off); err != nil {
		return nil, err
	}
	var got, payload []byte
	consumed, _, err := walkRecords(data, func(k, p []byte, _, _ int) { got, payload = k, p })
	switch {
	case err != nil:
		return nil, err
	case consumed != len(data) || got == nil || string(got) != key:
		return nil, errors.New("sweep: cache record does not match its index entry")
	}
	return DecodeResult(payload)
}

// Put stores an encoded trial result under key, tagged with the plan
// fingerprint that produced it (see GC), and returns once the record
// is written. Errors are real (malformed key, disk full, permissions):
// persistence was requested and did not happen, so callers must
// surface them rather than silently running an unresumable sweep.
func (c *Cache) Put(key, fingerprint string, v any) error {
	if !validKey(key) {
		return fmt.Errorf("sweep: cache put: malformed key %q (want lowercase hex, >= 3 chars)", key)
	}
	payload, err := EncodeResult(v)
	if err != nil {
		return err
	}
	rec := appendRecord(nil, key, payload)
	c.mu.Lock()
	defer c.mu.Unlock()
	seg, off, err := c.append(fingerprint, rec)
	if err != nil {
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	c.index[key] = recordLoc{seg: seg, off: off, n: int32(len(rec))}
	mCachePutBytes.Add(int64(len(rec)))
	return nil
}

// append writes rec to the fingerprint's segment, creating the segment
// (header and record in one write) when the handle has none, or when
// its segment was removed by GC or eviction. A failed or short write
// abandons the segment, so a torn record can only be a segment's last.
// c.mu must be held.
func (c *Cache) append(fingerprint string, rec []byte) (*segment, int64, error) {
	if seg := c.writers[fingerprint]; seg != nil {
		err := appendFile(filepath.Join(c.dir, seg.name), rec)
		if !errors.Is(err, fs.ErrNotExist) {
			if err != nil {
				delete(c.writers, fingerprint)
				seg.own = false
				return nil, 0, err
			}
			off := seg.parsed
			seg.parsed += int64(len(rec))
			seg.size = seg.parsed
			return seg, off, nil
		}
		c.forget(seg)
	}
	f, err := os.CreateTemp(c.dir, segPrefix+"*"+segSuffix)
	if err != nil {
		return nil, 0, err
	}
	data := append(segmentHeader(fingerprint), rec...)
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return nil, 0, err
	}
	seg := &segment{
		name:   filepath.Base(f.Name()),
		fp:     fingerprint,
		parsed: int64(len(data)),
		size:   int64(len(data)),
		header: true,
		own:    true,
		seen:   c.gen,
	}
	c.segs[seg.name] = seg
	c.writers[fingerprint] = seg
	return seg, int64(len(data) - len(rec)), nil
}

// appendFile appends data to the existing file at path in one write.
// It bypasses os.File: a regular file gains nothing from the runtime
// poller, whose registration would double the system calls of this
// open-write-close.
func appendFile(path string, data []byte) error {
	fd, err := syscall.Open(path, syscall.O_WRONLY|syscall.O_APPEND|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(path, syscall.O_WRONLY|syscall.O_APPEND|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return &fs.PathError{Op: "open", Path: path, Err: err}
	}
	n, err := syscall.Write(fd, data)
	for err == syscall.EINTR {
		n, err = syscall.Write(fd, data)
	}
	if cerr := syscall.Close(fd); err == nil {
		err = cerr
	}
	if err == nil && n != len(data) {
		err = io.ErrShortWrite
	}
	if err != nil {
		return &fs.PathError{Op: "write", Path: path, Err: err}
	}
	return nil
}

// refresh brings the index up to date with the directory: new
// segments are read from the start, known ones from where the last
// refresh stopped, and vanished ones are forgotten. c.mu must be held.
func (c *Cache) refresh() {
	names, err := listSegments(c.dir)
	if err != nil {
		return
	}
	c.gen++
	for _, name := range names {
		seg := c.segs[name]
		if seg == nil {
			seg = &segment{name: name}
			c.segs[name] = seg
		}
		seg.seen = c.gen
		if seg.own || seg.dead {
			continue
		}
		c.buf = c.scanFile(seg, c.buf)
	}
	var gone []*segment
	for _, seg := range c.segs {
		if seg.seen != c.gen {
			gone = append(gone, seg)
		}
	}
	for _, seg := range gone {
		c.forget(seg)
	}
}

// scanFile indexes the records appended to seg since its last scan.
func (c *Cache) scanFile(seg *segment, buf []byte) []byte {
	path := filepath.Join(c.dir, seg.name)
	info, err := os.Stat(path)
	if err != nil || info.Size() == seg.size {
		return buf
	}
	f, err := os.Open(path)
	if err != nil {
		return buf
	}
	defer f.Close()
	return seg.scan(f, info.Size(), buf, func(key []byte, off int64, n int) {
		if _, ok := c.index[string(key)]; !ok {
			c.index[string(key)] = recordLoc{seg: seg, off: off, n: int32(n)}
		}
	})
}

// forget drops a segment and every index entry pointing into it.
// c.mu must be held.
func (c *Cache) forget(seg *segment) {
	for key, loc := range c.index {
		if loc.seg == seg {
			delete(c.index, key)
		}
	}
	if c.writers[seg.fp] == seg {
		delete(c.writers, seg.fp)
	}
	if c.segs[seg.name] == seg {
		delete(c.segs, seg.name)
	}
}

// forgetName forgets the segment of that file name, if known.
// c.mu must be held.
func (c *Cache) forgetName(name string) {
	if seg := c.segs[name]; seg != nil {
		c.forget(seg)
	}
}

// Len counts the distinct keys with a valid record in the cache (test
// and stats support; it reads every segment). Temp files, v1 entries
// and torn or corrupt records are not counted.
func (c *Cache) Len() (int, error) {
	names, err := listSegments(c.dir)
	if err != nil {
		return 0, err
	}
	keys := map[string]struct{}{}
	for _, name := range names {
		scanSegmentFile(filepath.Join(c.dir, name), func(key []byte, _ int64, _ int) {
			keys[string(key)] = struct{}{}
		})
	}
	return len(keys), nil
}

// GCStats reports what one GC pass removed.
type GCStats struct {
	// Entries counts the records in removed segments of the target
	// fingerprint.
	Entries int
	// Corrupt counts removed files that were not valid segments: bad
	// headers, v1 per-entry files and anything else that could never
	// be read.
	Corrupt int
	// Temps counts removed temp files (crashed writers' leftovers).
	Temps int
	// Bytes totals the sizes of everything removed.
	Bytes int64
}

func (s GCStats) String() string {
	return fmt.Sprintf("%d entries, %d corrupt, %d temp files (%d bytes)", s.Entries, s.Corrupt, s.Temps, s.Bytes)
}

// GC removes every segment written under the given plan fingerprint —
// the artifacts of a finished or abandoned run, which nothing can
// address once its workload changed — plus every file that is not a
// valid segment: temp debris, v1 per-entry files and bad headers.
// Segments of other fingerprints are untouched, so a shared cache
// directory survives the GC of one run. Run it when no sweep is
// writing to the cache: a segment another process is creating at that
// instant has no header yet and would be removed as corrupt.
func (c *Cache) GC(fingerprint string) (GCStats, error) {
	var stats GCStats
	if fingerprint == "" {
		return stats, errors.New("sweep: cache gc: empty fingerprint")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := 0
	err := filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		switch {
		case strings.HasPrefix(name, tempPrefix):
			stats.Temps++
		case filepath.Dir(path) == filepath.Clean(c.dir) && isSegmentName(name):
			records := 0
			seg, serr := scanSegmentFile(path, func([]byte, int64, int) { records++ })
			switch {
			case errors.Is(serr, fs.ErrNotExist):
				return nil // raced with another GC or evictor
			case serr != nil:
				stats.Corrupt++
			case seg.fp == fingerprint:
				stats.Entries += records
			default:
				return nil
			}
			c.forgetName(name)
		default:
			stats.Corrupt++
		}
		if info, err := d.Info(); err == nil {
			stats.Bytes += info.Size()
		}
		// Tolerate losing the removal race with another GC.
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return err
		}
		removed++
		return nil
	})
	if err != nil {
		return stats, fmt.Errorf("sweep: cache gc: %w", err)
	}
	mCacheGCRemoved.Add(int64(removed))
	c.pruneEmptyDirs()
	return stats, nil
}

// EvictStats reports what one EvictTo pass did.
type EvictStats struct {
	// Entries counts the records in removed segments; Bytes their
	// total size.
	Entries int
	Bytes   int64
	// Kept is the total size of segments left in the cache, including
	// protected ones — so Kept may exceed the requested bound when the
	// current run's own segments alone are over it.
	Kept int64
}

func (s EvictStats) String() string {
	return fmt.Sprintf("evicted %d entries (%d bytes), %d bytes kept", s.Entries, s.Bytes, s.Kept)
}

// EvictTo removes least-recently-used segments until the segments'
// total size is at most maxBytes. Recency is the segment's mtime: Put
// writes it and a Get hit refreshes it, so the eviction order is LRU
// on noatime filesystems too. Segments written or touched since this
// Cache was opened are never removed regardless of the bound — the
// current run's working set must survive its own eviction pass, or a
// bounded cache would silently un-persist a sweep in progress. Files
// that are not segments are GC's to remove.
func (c *Cache) EvictTo(maxBytes int64) (EvictStats, error) {
	var stats EvictStats
	if maxBytes < 0 {
		return stats, fmt.Errorf("sweep: cache evict: negative size bound %d", maxBytes)
	}
	names, err := listSegments(c.dir)
	if err != nil {
		return stats, fmt.Errorf("sweep: cache evict: %w", err)
	}
	type entry struct {
		name string
		size int64
		mod  time.Time
	}
	var entries []entry
	var total int64
	for _, name := range names {
		info, err := os.Stat(filepath.Join(c.dir, name))
		if err != nil {
			continue // raced with a concurrent removal; not ours
		}
		total += info.Size()
		entries = append(entries, entry{name: name, size: info.Size(), mod: info.ModTime()})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mod.Before(entries[j].mod) })
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range entries {
		if total <= maxBytes {
			break
		}
		if !e.mod.Before(c.openedAt) {
			// Current-run segment: protected. Segments are mtime-sorted,
			// so everything after this one is protected too.
			break
		}
		path := filepath.Join(c.dir, e.name)
		records := 0
		scanSegmentFile(path, func([]byte, int64, int) { records++ })
		if err := os.Remove(path); err != nil {
			if os.IsNotExist(err) {
				continue // lost a race with GC or another evictor
			}
			return stats, fmt.Errorf("sweep: cache evict: %w", err)
		}
		c.forgetName(e.name)
		total -= e.size
		stats.Entries += records
		stats.Bytes += e.size
	}
	stats.Kept = total
	mCacheEvictedEntries.Add(int64(stats.Entries))
	mCacheEvictedBytes.Add(stats.Bytes)
	return stats, nil
}

// pruneEmptyDirs drops subdirectories GC emptied (the v1 layout's
// fan-out directories); best-effort.
func (c *Cache) pruneEmptyDirs() {
	dirs, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	for _, d := range dirs {
		if d.IsDir() {
			os.Remove(filepath.Join(c.dir, d.Name())) // fails unless empty
		}
	}
}

// listSegments returns the names of the segment files in dir.
func listSegments(dir string) ([]string, error) {
	d, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	names, err := d.Readdirnames(-1)
	d.Close()
	if err != nil {
		return nil, err
	}
	segs := names[:0]
	for _, name := range names {
		if isSegmentName(name) {
			segs = append(segs, name)
		}
	}
	return segs, nil
}

// scanSegmentFile reads a whole segment file, feeding fn each valid
// record. It fails on a file that does not start with a complete,
// valid header.
func scanSegmentFile(path string, fn func(key []byte, off int64, n int)) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	seg := &segment{name: filepath.Base(path)}
	seg.scan(f, info.Size(), nil, fn)
	if !seg.header {
		return nil, fmt.Errorf("sweep: %s is not a cache segment", path)
	}
	return seg, nil
}

// scan consumes seg's bytes from seg.parsed up to size: the header
// first, then every complete record, feeding fn the valid ones with
// their offsets and framed lengths. It stops at a partial tail, which
// a later scan retries, and marks the segment dead on a bad header or
// impossible framing. buf is a reusable read buffer; the possibly
// grown buffer is returned.
func (seg *segment) scan(r io.ReaderAt, size int64, buf []byte, fn func(key []byte, off int64, n int)) []byte {
	seg.size = size
	need := 0
	for !seg.dead && seg.parsed < size {
		want := size - seg.parsed
		if limit := int64(max(scanChunk, need)); want > limit {
			want = limit
		}
		if int64(len(buf)) < want {
			buf = make([]byte, want)
		}
		n, _ := r.ReadAt(buf[:want], seg.parsed)
		if int64(n) < want {
			return buf // the file shrank or failed; retry on a later scan
		}
		data := buf[:n]
		consumed := 0
		if !seg.header {
			fp, hn, err := parseSegmentHeader(data)
			if err == errPartial {
				return buf // header still being written
			}
			if err != nil {
				seg.dead = true
				return buf
			}
			seg.fp, seg.header, consumed = fp, true, hn
		} else {
			base := seg.parsed
			var err error
			consumed, need, err = walkRecords(data, func(key, _ []byte, off, n int) {
				fn(key, base+int64(off), n)
			})
			if err != nil {
				seg.parsed += int64(consumed)
				seg.dead = true
				return buf
			}
		}
		seg.parsed += int64(consumed)
		if consumed == 0 && (need <= n || seg.parsed+int64(need) > size) {
			return buf // partial tail
		}
	}
	return buf
}

// errPartial reports input that ends before a complete header.
var errPartial = errors.New("sweep: truncated cache segment header")

// segmentHeader encodes a segment header for the fingerprint.
func segmentHeader(fingerprint string) []byte {
	buf := binary.AppendUvarint([]byte(cacheMagic), CodecVersion)
	return appendString(buf, fingerprint)
}

// parseSegmentHeader decodes a segment header from the start of data,
// returning the fingerprint and the header's length. errPartial means
// data is a proper prefix of a header; any other error means it is not
// (a bad magic, a version skew, an impossible fingerprint length).
func parseSegmentHeader(data []byte) (fingerprint string, n int, err error) {
	if len(data) < len(cacheMagic) {
		if string(data) == cacheMagic[:len(data)] {
			return "", 0, errPartial
		}
		return "", 0, errors.New("sweep: not a cache segment")
	}
	if string(data[:len(cacheMagic)]) != cacheMagic {
		return "", 0, errors.New("sweep: not a cache segment")
	}
	pos := len(cacheMagic)
	ver, vn := binary.Uvarint(data[pos:])
	switch {
	case vn == 0:
		return "", 0, errPartial
	case vn < 0:
		return "", 0, errors.New("sweep: bad cache segment version")
	case ver != CodecVersion:
		return "", 0, fmt.Errorf("sweep: cache segment codec version %d, want %d", ver, CodecVersion)
	}
	pos += vn
	fl, fn := binary.Uvarint(data[pos:])
	switch {
	case fn == 0:
		return "", 0, errPartial
	case fn < 0 || fl > maxFingerprint:
		return "", 0, errors.New("sweep: bad cache segment fingerprint length")
	}
	pos += fn
	if uint64(len(data)-pos) < fl {
		return "", 0, errPartial
	}
	end := pos + int(fl)
	return string(data[pos:end]), end, nil
}

// appendRecord appends one framed record for (key, payload) to buf.
func appendRecord(buf []byte, key string, payload []byte) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, recHeaderLen)...)
	buf = appendString(buf, key)
	buf = append(buf, payload...)
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-recHeaderLen))
	crc := crc32.Update(0, crcTable, buf[start:start+4])
	crc = crc32.Update(crc, crcTable, buf[start+recHeaderLen:])
	binary.LittleEndian.PutUint32(buf[start+4:], crc)
	return buf
}

// walkRecords decodes the framed records at the start of data, calling
// fn with the key, payload, offset and framed length of every record whose checksum
// and key hold; a record failing either is skipped. It returns the
// bytes consumed — every complete record — and, when data ends inside
// a record, the length that record needs (the 8-byte frame header if
// even that is cut). An error means a length field no record can have:
// the framing past consumed cannot be trusted. key and payload alias
// data.
func walkRecords(data []byte, fn func(key, payload []byte, off, n int)) (consumed, need int, err error) {
	pos := 0
	for {
		rest := data[pos:]
		if len(rest) < recHeaderLen {
			if len(rest) == 0 {
				return pos, 0, nil
			}
			return pos, recHeaderLen, nil
		}
		n := binary.LittleEndian.Uint32(rest)
		if n > maxRecordBody {
			return pos, 0, fmt.Errorf("sweep: cache record length %d exceeds %d", n, maxRecordBody)
		}
		total := recHeaderLen + int(n)
		if len(rest) < total {
			return pos, total, nil
		}
		body := rest[recHeaderLen:total]
		crc := crc32.Update(0, crcTable, rest[:4])
		crc = crc32.Update(crc, crcTable, body)
		if crc == binary.LittleEndian.Uint32(rest[4:]) {
			kl, kn := binary.Uvarint(body)
			if kn > 0 && kl <= uint64(len(body)-kn) {
				key := body[kn : kn+int(kl)]
				if validKey(string(key)) {
					fn(key, body[kn+int(kl):], pos, total)
				}
			}
		}
		pos += total
	}
}
