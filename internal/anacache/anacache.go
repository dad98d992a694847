// Package anacache is the persistent, content-addressed per-binary
// analysis cache. The paper pays a one-time batch cost — three days of
// disassembly over 30,976 packages — and then answers every query from
// stored rows (§7); this package gives the reproduction the same
// property across process lifetimes: each binary's extracted footprint
// summary is stored on disk keyed by a hash of the file's bytes plus an
// analysis-version/options tag, so re-running the pipeline over a mostly
// unchanged corpus re-disassembles only the binaries that actually
// changed.
//
// Records are self-validating: a hit requires the envelope tag (analysis
// version + options) and content key to match, and a summary naming only
// what extraction can emit (footprint's Summary.Check); any decode failure — truncation, corruption,
// schema drift — degrades to a miss, never to a wrong footprint. Writes
// go through atomicfile, so a reader racing a writer sees either the old
// record or the new one, never a torn one.
package anacache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/atomicfile"
	"repro/internal/footprint"
	"repro/internal/obs"
)

// Cache is one on-disk analysis cache, safe for concurrent use by the
// pipeline's worker pool. Counters accumulate for the life of the Cache
// value, across every study load that shares it.
//
// Validated records are additionally memoized in memory, so a resident
// service reloading its corpus pays the disk read and JSON decode at most
// once per distinct binary: later reloads resolve unchanged binaries with
// a hash and a map lookup. The memo holds one summary per binary seen
// during the process lifetime — the same order of memory as the resident
// study itself.
type Cache struct {
	dir string
	tag string

	mu   sync.RWMutex
	mem  map[string]*footprint.Summary
	vmem map[string]json.RawMessage // verdict payloads by tag+"\x00"+key

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
	writes        atomic.Uint64
	writeErrors   atomic.Uint64

	verdictHits          atomic.Uint64
	verdictMisses        atomic.Uint64
	verdictInvalidations atomic.Uint64
	verdictWrites        atomic.Uint64
	verdictWriteErrors   atomic.Uint64
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts lookups answered from a valid record.
	Hits uint64
	// Misses counts lookups that fell back to re-analysis (absent,
	// stale, or corrupt records).
	Misses uint64
	// Invalidations counts the subset of misses where a record existed
	// but was rejected: wrong analysis version or options, content-key
	// mismatch, or a corrupt/truncated file.
	Invalidations uint64
	// Writes counts records persisted; WriteErrors counts failed writes
	// (the pipeline proceeds either way — the cache is advisory).
	Writes      uint64
	WriteErrors uint64
	// The Verdict* counters mirror the above for the verdict-record
	// family (stub/fake tolerance from fault-injection emulation).
	VerdictHits          uint64
	VerdictMisses        uint64
	VerdictInvalidations uint64
	VerdictWrites        uint64
	VerdictWriteErrors   uint64
}

// HitRatio returns hits over lookups (0 when idle).
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Tag renders the invalidation tag a cache enforces: the analysis
// version plus every option that changes what extraction produces.
// Bumping footprint.AnalysisVersion — or analyzing under different
// options — therefore invalidates all previously stored records.
func Tag(opts footprint.Options) string {
	return fmt.Sprintf("v%d fp=%t wb=%t ns=%t",
		footprint.AnalysisVersion, opts.NoFunctionPointers, opts.WholeBinary, opts.NoStrings)
}

// Open returns a cache rooted at dir (created if absent) for analyses
// run under opts.
func Open(dir string, opts footprint.Options) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("anacache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("anacache: %w", err)
	}
	return &Cache{dir: dir, tag: Tag(opts), mem: make(map[string]*footprint.Summary)}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// Key returns the content address of a binary: the hex SHA-256 of its
// bytes. Two files with identical bytes share one record.
func Key(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// record is the on-disk envelope around a summary.
type record struct {
	Tag     string             `json:"tag"`
	Key     string             `json:"key"`
	Summary *footprint.Summary `json:"summary"`
}

// path shards records by the first byte of the key so one directory
// never holds the whole corpus.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key[2:]+".json")
}

// Get looks up the analysis summary for a binary's bytes. A false return
// means the caller must analyze; invalid records are counted but never
// returned.
func (c *Cache) Get(data []byte) (*footprint.Summary, bool) {
	key := Key(data)
	c.mu.RLock()
	sum, ok := c.mem[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return sum, true
	}
	raw, err := os.ReadFile(c.path(key))
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	var rec record
	if err := json.Unmarshal(raw, &rec); err != nil ||
		rec.Tag != c.tag || rec.Key != key || rec.Summary == nil || rec.Summary.Check() != nil {
		c.invalidations.Add(1)
		c.misses.Add(1)
		return nil, false
	}
	c.memoize(key, rec.Summary)
	c.hits.Add(1)
	return rec.Summary, true
}

func (c *Cache) memoize(key string, sum *footprint.Summary) {
	c.mu.Lock()
	c.mem[key] = sum
	c.mu.Unlock()
}

// Put persists the analysis summary for a binary's bytes. Errors are
// returned for observability but safe to ignore: a failed write only
// costs a future re-analysis.
func (c *Cache) Put(data []byte, sum *footprint.Summary) error {
	key := Key(data)
	// The just-computed summary is authoritative for these bytes whether
	// or not the disk write lands.
	c.memoize(key, sum)
	dst := c.path(key)
	if err := c.write(dst, key, sum); err != nil {
		c.writeErrors.Add(1)
		return err
	}
	c.writes.Add(1)
	return nil
}

func (c *Cache) write(dst, key string, sum *footprint.Summary) error {
	raw, err := json.Marshal(record{Tag: c.tag, Key: key, Summary: sum})
	if err != nil {
		return fmt.Errorf("anacache: encoding %s: %w", key, err)
	}
	return c.writeRaw(dst, raw)
}

// writeRaw lands encoded bytes at dst atomically, for both record
// families. It is not durable (no fsync): a record a power loss drops
// or leaves torn costs one counted miss and a re-analysis, while an
// fsync of the file and the directory would add about a third of a
// millisecond to each of the hundreds of records a corpus build writes.
func (c *Cache) writeRaw(dst string, raw []byte) error {
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("anacache: %w", err)
	}
	if err := atomicfile.Write(dst, raw); err != nil {
		return fmt.Errorf("anacache: %w", err)
	}
	return nil
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:                 c.hits.Load(),
		Misses:               c.misses.Load(),
		Invalidations:        c.invalidations.Load(),
		Writes:               c.writes.Load(),
		WriteErrors:          c.writeErrors.Load(),
		VerdictHits:          c.verdictHits.Load(),
		VerdictMisses:        c.verdictMisses.Load(),
		VerdictInvalidations: c.verdictInvalidations.Load(),
		VerdictWrites:        c.verdictWrites.Load(),
		VerdictWriteErrors:   c.verdictWriteErrors.Load(),
	}
}

// WriteMetrics writes the cache's families under prefix+"_anacache_",
// the one rendering apiserved and apiworker share. A nil cache writes
// zeros, so a server without one still exports the families.
func (c *Cache) WriteMetrics(w *obs.Writer, prefix string) {
	var st Stats
	if c != nil {
		st = c.Stats()
	}
	p := prefix + "_anacache_"
	obs.Counter(w, p+"hits_total", "Per-binary analysis records served from the persistent cache.", st.Hits)
	obs.Counter(w, p+"misses_total", "Lookups that fell back to re-analysis.", st.Misses)
	obs.Counter(w, p+"invalidations_total", "Records rejected as stale or corrupt.", st.Invalidations)
	obs.Counter(w, p+"writes_total", "Records persisted to the analysis cache.", st.Writes)
	obs.Counter(w, p+"write_errors_total", "Records that failed to persist (the cache is advisory).", st.WriteErrors)
	obs.Gauge(w, p+"hit_ratio", "Analysis-cache hits over lookups since start.", st.HitRatio())
}
