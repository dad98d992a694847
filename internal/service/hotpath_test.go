package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compat"
)

// TestByteCacheByteBound is the resident-memory regression test: no
// matter how many distinct answers are inserted, the cache's resident
// bytes must stay under its configured budget, with the overflow
// evicted (and counted) rather than accumulated.
func TestByteCacheByteBound(t *testing.T) {
	const budget = 64 << 10 // floored to 32 KiB minimum, still tiny
	c := newByteCache(budget)
	ep := c.ep(epFootprint)

	body := bytes.Repeat([]byte("x"), 512)
	for i := 0; i < 2000; i++ {
		c.Add(ep, fmt.Sprintf("fp|1|pkg-%04d", i), Encoded{Status: 200, Body: body, ETag: `"deadbeef"`})
		if st := c.Stats(); st.Bytes > st.CapacityBytes {
			t.Fatalf("after %d inserts: resident %d bytes exceeds capacity %d", i+1, st.Bytes, st.CapacityBytes)
		}
	}
	st := c.Stats()
	if st.Bytes > st.CapacityBytes {
		t.Fatalf("resident %d bytes exceeds capacity %d", st.Bytes, st.CapacityBytes)
	}
	if st.Evictions == 0 {
		t.Error("2000 inserts into a 64KiB cache evicted nothing")
	}
	if st.Entries == 0 {
		t.Error("cache is empty after inserts — bound collapsed to zero")
	}

	// Refreshing an existing key must re-charge, not double-charge.
	before := c.Stats().Bytes
	c.Add(ep, "fp|1|pkg-1999", Encoded{Status: 200, Body: body, ETag: `"deadbeef"`})
	if after := c.Stats().Bytes; after != before {
		t.Errorf("refreshing an identical entry moved resident bytes %d -> %d", before, after)
	}

	// An answer bigger than a whole shard is served uncached, not
	// allowed to wipe the shard.
	huge := bytes.Repeat([]byte("y"), int(st.CapacityBytes))
	c.Add(ep, "fp|1|huge", Encoded{Status: 200, Body: huge, ETag: `"deadbeef"`})
	if _, ok := c.Get(ep, "fp|1|huge"); ok {
		t.Error("oversize answer was cached")
	}
	if got := c.Stats().Oversize; got != 1 {
		t.Errorf("oversize count = %d, want 1", got)
	}
}

// TestByteCacheEndpointAttribution pins the per-endpoint accounting:
// hits and misses land on the probing endpoint, evictions on the
// endpoint that owned the evicted entry.
func TestByteCacheEndpointAttribution(t *testing.T) {
	c := newByteCache(0) // floor: 32 shards x 1 KiB
	imp, fp := c.ep(epImportance), c.ep(epFootprint)

	c.Add(imp, "imp|1|read", Encoded{Status: 200, Body: []byte("{}"), ETag: `"aa"`})
	if _, ok := c.Get(imp, "imp|1|read"); !ok {
		t.Fatal("miss on just-inserted key")
	}
	if _, ok := c.Get(fp, "fp|1|nope"); ok {
		t.Fatal("hit on absent key")
	}

	// Fill one shard with footprint entries until importance's entry—
	// pushed to the LRU tail of whatever shard it shares—could be
	// evicted; evictions must be credited to the owner endpoint.
	body := bytes.Repeat([]byte("z"), 200)
	for i := 0; i < 400; i++ {
		c.Add(fp, fmt.Sprintf("fp|1|p%03d", i), Encoded{Status: 200, Body: body, ETag: `"bb"`})
	}

	var impStats, fpStats EndpointCacheStats
	for _, es := range c.Stats().Endpoints {
		switch es.Endpoint {
		case epImportance:
			impStats = es
		case epFootprint:
			fpStats = es
		}
	}
	if impStats.Hits != 1 || impStats.Misses != 0 {
		t.Errorf("importance hits/misses = %d/%d, want 1/0", impStats.Hits, impStats.Misses)
	}
	if fpStats.Misses != 1 {
		t.Errorf("footprint misses = %d, want 1", fpStats.Misses)
	}
	if fpStats.Evictions == 0 {
		t.Error("overfilling with footprint entries evicted nothing attributed to footprint")
	}
}

// TestSingleflightShared pins the herd-collapse contract: callers that
// pile onto an in-flight key all receive the one compute's result, and
// every flight has exactly one non-shared caller — so executions +
// shared callers always sums to the caller count.
func TestSingleflightShared(t *testing.T) {
	const followers = 15
	var g flightGroup
	var calls atomic.Uint64
	started := make(chan struct{})
	release := make(chan struct{})
	fn := func() (Encoded, error) {
		select {
		case started <- struct{}{}:
			<-release // first flight: hold the door open for followers
		default: // a straggler's re-execution must not block
		}
		calls.Add(1)
		return Encoded{Status: 200, Body: []byte("v")}, nil
	}

	var wg sync.WaitGroup
	sharedCount := make(chan bool, followers+1)
	launch := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			enc, shared, err := g.Do("k", fn)
			if err != nil || string(enc.Body) != "v" {
				t.Errorf("Do = %q, %v", enc.Body, err)
			}
			sharedCount <- shared
		}()
	}
	launch()
	<-started // the executor is inside fn, blocked on release
	for i := 0; i < followers; i++ {
		launch()
	}
	time.Sleep(20 * time.Millisecond) // let the followers queue behind the flight
	close(release)
	wg.Wait()
	close(sharedCount)

	var shared int
	for s := range sharedCount {
		if s {
			shared++
		}
	}
	got := calls.Load()
	if got == 0 || got > followers {
		t.Fatalf("compute ran %d times for %d concurrent callers", got, followers+1)
	}
	if uint64(shared) != uint64(followers+1)-got {
		t.Errorf("shared callers = %d with %d executions, want %d", shared, got, uint64(followers+1)-got)
	}
}

// TestSingleflightPanicReleasesKey: a compute that panics must not
// wedge its key. The panic reaches the goroutine that ran fn, callers
// that joined the call get an error instead of blocking, and the next
// Do on the key runs its own fn.
func TestSingleflightPanicReleasesKey(t *testing.T) {
	var g flightGroup
	started := make(chan struct{})
	release := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		g.Do("k", func() (Encoded, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started

	const joiners = 4
	errs := make(chan error, joiners)
	for i := 0; i < joiners; i++ {
		go func() {
			_, shared, err := g.Do("k", func() (Encoded, error) {
				return Encoded{Status: 200, Body: []byte("own")}, nil
			})
			if shared && !errors.Is(err, errFlightPanicked) {
				errs <- fmt.Errorf("joined the panicking call and got %v", err)
				return
			}
			errs <- nil
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the joiners queue behind the call
	close(release)

	timeout := time.After(5 * time.Second)
	select {
	case v := <-recovered:
		if v != "boom" {
			t.Fatalf("panicking caller recovered %v, want the panic value", v)
		}
	case <-timeout:
		t.Fatal("panicking caller never returned")
	}
	for i := 0; i < joiners; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Error(err)
			}
		case <-timeout:
			t.Fatal("a caller that joined the panicking call is still blocked")
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		enc, shared, err := g.Do("k", func() (Encoded, error) {
			return Encoded{Status: 200, Body: []byte("fresh")}, nil
		})
		if err != nil || shared || string(enc.Body) != "fresh" {
			t.Errorf("Do after the panic = %q shared=%v err=%v, want its own result", enc.Body, shared, err)
		}
	}()
	select {
	case <-done:
	case <-timeout:
		t.Fatal("the key is still wedged after the panic")
	}
}

// TestHotsetServesPrecomputed checks the hotset actually answers the
// steady-state queries without touching the byte cache: importance for
// any table syscall, the full greedy path, and the compat table.
func TestHotsetServesPrecomputed(t *testing.T) {
	svc := newTestService(t, Config{})

	probes := []func() (Encoded, error){
		func() (Encoded, error) { return svc.ImportanceBytes(-1, "read") },
		func() (Encoded, error) { return svc.ImportanceBytes(-1, "lookup_dcookie") },
		func() (Encoded, error) { return svc.PathBytes(-1, 0) },
		func() (Encoded, error) { return svc.PathBytes(-1, 100000) }, // clamps onto the full path
		func() (Encoded, error) { return svc.CompatSystemsBytes() },
	}
	for i, probe := range probes {
		before := svc.Stats()
		enc, err := probe()
		if err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
		if enc.Status != 200 || len(enc.Body) == 0 || enc.ETag == "" {
			t.Fatalf("probe %d: encoded = %d/%dB/%q", i, enc.Status, len(enc.Body), enc.ETag)
		}
		after := svc.Stats()
		if after.HotsetHits != before.HotsetHits+1 {
			t.Errorf("probe %d: hotset hits %d -> %d, want +1", i, before.HotsetHits, after.HotsetHits)
		}
		if after.ByteCacheMisses != before.ByteCacheMisses {
			t.Errorf("probe %d: hotset-served query counted a byte-cache miss", i)
		}
	}

	st := svc.Stats()
	if st.HotsetEntries == 0 || st.HotsetBytes == 0 {
		t.Errorf("hotset entries/bytes = %d/%d, want > 0", st.HotsetEntries, st.HotsetBytes)
	}

	// A non-hotset answer takes the cache path: miss then hit.
	if _, err := svc.FootprintBytes(-1, svc.Snapshot().Study.Packages()[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.FootprintBytes(-1, svc.Snapshot().Study.Packages()[0]); err != nil {
		t.Fatal(err)
	}
	st = svc.Stats()
	if st.ByteCacheMisses == 0 || st.ByteCacheHits == 0 {
		t.Errorf("footprint pair: byte-cache hits/misses = %d/%d, want both > 0", st.ByteCacheHits, st.ByteCacheMisses)
	}
}

// TestHotsetSuggestSlicesMatchFresh pins the hotset's suggest entries,
// one list per compat target sliced for every k, to the answers the
// compute path gives once the hotset is gone: same body, same ETag.
func TestHotsetSuggestSlicesMatchFresh(t *testing.T) {
	svc := newTestService(t, Config{})
	hot := svc.hot.Load()
	svc.hot.Store(nil)
	path := svc.Snapshot().Study.GreedyPath()
	for _, sys := range append(append([]compat.System(nil), compat.Systems...), compat.GrapheneFixed) {
		var names []string
		for _, api := range compat.SupportedSet(sys, path).Sorted() {
			names = append(names, api.Name)
		}
		known, unknown := normalizeSyscalls(names)
		for k := 1; k <= hotsetSuggestMaxK; k++ {
			want, ok := hot.entries[suggestKey(hot.prefix, k, known, unknown)]
			if !ok {
				t.Fatalf("%s k=%d: no hotset entry", sys.Name, k)
			}
			// The first call computes and caches the warm copy, which is
			// what the hotset holds; the second serves it.
			if _, err := svc.SuggestBytes(-1, names, k); err != nil {
				t.Fatal(err)
			}
			got, err := svc.SuggestBytes(-1, names, k)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Body, want.Body) || got.ETag != want.ETag {
				t.Fatalf("%s k=%d: hotset entry %s (%s), fresh answer %s (%s)",
					sys.Name, k, want.Body, want.ETag, got.Body, got.ETag)
			}
		}
	}
}

// TestByteCacheSwapStorm hammers the byte read path while snapshots are
// swapped in concurrently (both the counter-advancing Swap and the
// cache-flushing SwapAt). Every response must be internally consistent
// — the generation stamped in the body must be a generation that was
// actually published — and ETags must follow the fingerprint. Run
// under -race this is the swap-safety proof.
func TestByteCacheSwapStorm(t *testing.T) {
	a, b := testStudies(t)
	svc := New(a, "storm", Config{CacheBytes: 1 << 20})

	stop := make(chan struct{})
	swapperDone := make(chan struct{})

	// Swapper: alternate the two corpora through both install paths.
	go func() {
		defer close(swapperDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			study := a
			if i%2 == 1 {
				study = b
			}
			if i%3 == 2 {
				svc.SwapAt(study, "storm-push", uint64(100+i), "")
			} else {
				svc.Swap(study, "storm-reload")
			}
		}
	}()

	fpA := a.Meta().Fingerprint
	fpB := b.Meta().Fingerprint
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			names := []string{"read", "write", "openat", "close"}
			for i := 0; i < 300; i++ {
				enc, err := svc.ImportanceBytes(-1, "read")
				if err != nil {
					t.Errorf("importance: %v", err)
					return
				}
				var imp ImportanceResult
				if err := json.Unmarshal(enc.Body, &imp); err != nil {
					t.Errorf("importance body: %v", err)
					return
				}
				if !imp.Known {
					t.Error("importance(read) lost Known across a swap")
					return
				}
				if enc.ETag != etagFor(fpA, impKey(fmt.Sprint(imp.Generation), "read")) &&
					enc.ETag != etagFor(fpB, impKey(fmt.Sprint(imp.Generation), "read")) {
					t.Errorf("ETag %s matches neither corpus at generation %d — stale bytes", enc.ETag, imp.Generation)
					return
				}
				if _, err := svc.CompletenessBytes(-1, names); err != nil {
					t.Errorf("completeness: %v", err)
					return
				}
				if _, err := svc.PathBytes(-1, 5); err != nil {
					t.Errorf("path: %v", err)
					return
				}
			}
		}()
	}

	readers.Wait()
	close(stop)
	<-swapperDone
}

// TestETagChangesWithFingerprint pins revalidation safety: swapping in
// a different corpus changes the answer's ETag, so If-None-Match can
// never confirm stale bytes.
func TestETagChangesWithFingerprint(t *testing.T) {
	a, b := testStudies(t)
	svc := New(a, "etag", Config{})

	first, err := svc.ImportanceBytes(-1, "read")
	if err != nil {
		t.Fatal(err)
	}
	svc.Swap(b, "etag-swap")
	second, err := svc.ImportanceBytes(-1, "read")
	if err != nil {
		t.Fatal(err)
	}
	if first.ETag == second.ETag {
		t.Errorf("ETag %s unchanged across corpus swap", first.ETag)
	}
	if !strings.HasPrefix(first.ETag, `"`) || !strings.HasSuffix(first.ETag, `"`) {
		t.Errorf("ETag %s is not a quoted strong validator", first.ETag)
	}
}
