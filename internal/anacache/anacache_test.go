package anacache

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/footprint"
	"repro/internal/linuxapi"
)

// testSummary builds a small but structurally complete summary: two
// functions with an edge, an export, APIs, imports, and strings.
func testSummary() *footprint.Summary {
	return &footprint.Summary{
		Path:   "/usr/bin/widget",
		Soname: "",
		Needed: []string{"libc.so.6"},
		Funcs: []footprint.FuncSummary{
			{Name: "entry", Exported: true, APIs: []linuxapi.API{linuxapi.Sys("openat")},
				Imports: []string{"write"}, Calls: []int{1}},
			{Name: "helper", APIs: []linuxapi.API{linuxapi.Sys("close"), linuxapi.Ioctl("TIOCGWINSZ")}},
		},
		Entry:         []int{0},
		Strings:       []linuxapi.API{linuxapi.Pseudo("/proc/self/maps")},
		Sites:         3,
		Unresolved:    1,
		DirectSyscall: true,
	}
}

func mustOpen(t *testing.T, dir string, opts footprint.Options) *Cache {
	t.Helper()
	c, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// summaryJSON canonicalizes a summary for comparison (the struct holds
// an unexported lookup map reflect.DeepEqual would trip over).
func summaryJSON(t *testing.T, s *footprint.Summary) string {
	t.Helper()
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestRoundTrip(t *testing.T) {
	c := mustOpen(t, t.TempDir(), footprint.Options{})
	data := []byte("\x7fELF fake binary bytes")

	if _, ok := c.Get(data); ok {
		t.Fatal("hit on empty cache")
	}
	want := testSummary()
	if err := c.Put(data, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(data)
	if !ok {
		t.Fatal("miss after Put")
	}
	if summaryJSON(t, got) != summaryJSON(t, want) {
		t.Errorf("summary changed across the cache:\n got %s\nwant %s",
			summaryJSON(t, got), summaryJSON(t, want))
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Invalidations != 0 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 write / 0 invalidations", st)
	}
}

// recordPath locates the single record file written by a Put.
func recordPath(t *testing.T, dir string) string {
	t.Helper()
	var found string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(path, ".json") {
			found = path
		}
		return err
	})
	if err != nil || found == "" {
		t.Fatalf("no record file under %s (err=%v)", dir, err)
	}
	return found
}

func TestCorruptRecordFallsBackToMiss(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, footprint.Options{})
	data := []byte("corrupt me")
	if err := c.Put(data, testSummary()); err != nil {
		t.Fatal(err)
	}
	rec := recordPath(t, dir)
	if err := os.WriteFile(rec, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A fresh Cache over the same directory (the next process) must
	// detect the corruption on its cold read; the writer's own in-memory
	// memo legitimately still holds the validated summary.
	c2 := mustOpen(t, dir, footprint.Options{})
	if _, ok := c2.Get(data); ok {
		t.Fatal("corrupt record returned a summary")
	}
	if st := c2.Stats(); st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
	// Re-analysis then re-Put repairs the entry.
	if err := c2.Put(data, testSummary()); err != nil {
		t.Fatal(err)
	}
	if _, ok := mustOpen(t, dir, footprint.Options{}).Get(data); !ok {
		t.Fatal("repaired record still missing")
	}
}

func TestTruncatedRecordFallsBackToMiss(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, footprint.Options{})
	data := []byte("truncate me")
	if err := c.Put(data, testSummary()); err != nil {
		t.Fatal(err)
	}
	rec := recordPath(t, dir)
	raw, err := os.ReadFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(rec, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := mustOpen(t, dir, footprint.Options{})
	if _, ok := c2.Get(data); ok {
		t.Fatal("truncated record returned a summary")
	}
	if st := c2.Stats(); st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
}

func TestAnalysisVersionBumpInvalidates(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, footprint.Options{})
	data := []byte("versioned")
	if err := c.Put(data, testSummary()); err != nil {
		t.Fatal(err)
	}
	// Rewrite the record as if an older analyzer version had produced it.
	rec := recordPath(t, dir)
	raw, err := os.ReadFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	cur := Tag(footprint.Options{})
	if !strings.Contains(cur, "v") || !strings.Contains(string(raw), cur) {
		t.Fatalf("tag %q not embedded in record", cur)
	}
	old := strings.Replace(string(raw), cur, "v0"+cur[strings.Index(cur, " "):], 1)
	if err := os.WriteFile(rec, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := mustOpen(t, dir, footprint.Options{})
	if _, ok := c2.Get(data); ok {
		t.Fatal("stale-version record returned a summary")
	}
	if st := c2.Stats(); st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
}

func TestOptionsChangeInvalidates(t *testing.T) {
	dir := t.TempDir()
	data := []byte("same bytes, different analysis")
	c1 := mustOpen(t, dir, footprint.Options{})
	if err := c1.Put(data, testSummary()); err != nil {
		t.Fatal(err)
	}
	// A cache opened over the same directory with different analysis
	// options must not serve the other configuration's records.
	c2 := mustOpen(t, dir, footprint.Options{WholeBinary: true})
	if _, ok := c2.Get(data); ok {
		t.Fatal("record leaked across analysis options")
	}
	if st := c2.Stats(); st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
	// The original configuration still hits.
	if _, ok := c1.Get(data); !ok {
		t.Fatal("original options no longer hit")
	}
}

func TestKeyMismatchInvalidates(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, footprint.Options{})
	a, b := []byte("content a"), []byte("content b")
	if err := c.Put(a, testSummary()); err != nil {
		t.Fatal(err)
	}
	// Move a's record into b's slot, simulating a mangled cache tree.
	src := recordPath(t, dir)
	dst := c.path(Key(b))
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(src, dst); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(b); ok {
		t.Fatal("record served under the wrong content key")
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
}

// A record whose summary names what extraction cannot emit is one
// invalidation and one miss, and leaves the intern table alone.
func TestUndeclaredAPIsInvalidate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(*footprint.Summary)
	}{
		{"unknown syscalls", func(s *footprint.Summary) {
			s.Funcs[1].APIs = []linuxapi.API{linuxapi.Sys("anacache_unknown_a"), linuxapi.Sys("anacache_unknown_b")}
		}},
		{"verbatim path as a function API", func(s *footprint.Summary) {
			s.Funcs[0].APIs = append(s.Funcs[0].APIs, linuxapi.Pseudo("/proc/self/anacache-verbatim"))
		}},
		{"string of another kind", func(s *footprint.Summary) {
			s.Strings = append(s.Strings, linuxapi.Sys("read"))
		}},
		{"string outside the pseudo filesystems", func(s *footprint.Summary) {
			s.Strings = append(s.Strings, linuxapi.Pseudo("/etc/passwd"))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			data := []byte(tc.name)
			sum := testSummary()
			tc.spoil(sum)
			if err := mustOpen(t, dir, footprint.Options{}).Put(data, sum); err != nil {
				t.Fatal(err)
			}
			universe := linuxapi.InternUniverse()
			c := mustOpen(t, dir, footprint.Options{})
			if _, ok := c.Get(data); ok {
				t.Fatal("a summary naming undeclared APIs was a hit")
			}
			if st := c.Stats(); st.Invalidations != 1 || st.Misses != 1 || st.Hits != 0 {
				t.Errorf("stats %+v, want one invalidation and one miss", st)
			}
			if n := linuxapi.InternUniverse(); n != universe {
				t.Errorf("intern table grew from %d to %d", universe, n)
			}
		})
	}
	// The unspoiled record, with a verbatim pseudo-file string, still hits.
	dir := t.TempDir()
	sum := testSummary()
	sum.Strings = append(sum.Strings, linuxapi.Pseudo("/proc/self/anacache-verbatim"))
	if err := mustOpen(t, dir, footprint.Options{}).Put([]byte("clean"), sum); err != nil {
		t.Fatal(err)
	}
	if _, ok := mustOpen(t, dir, footprint.Options{}).Get([]byte("clean")); !ok {
		t.Error("a summary extraction could emit missed")
	}
}

func TestMemoServesWithoutDisk(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, footprint.Options{})
	data := []byte("memoized")
	if err := c.Put(data, testSummary()); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(recordPath(t, dir)); err != nil {
		t.Fatal(err)
	}
	// The writing process keeps serving from its in-memory memo even if
	// the on-disk record vanishes; only the next process pays a miss.
	if _, ok := c.Get(data); !ok {
		t.Fatal("memo did not serve after record file removal")
	}
	if _, ok := mustOpen(t, dir, footprint.Options{}).Get(data); ok {
		t.Fatal("fresh cache served a deleted record")
	}
}

func TestConcurrentPutGet(t *testing.T) {
	c := mustOpen(t, t.TempDir(), footprint.Options{})
	data := []byte("contended")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := c.Put(data, testSummary()); err != nil {
					t.Error(err)
					return
				}
				if sum, ok := c.Get(data); ok && sum.Sites != 3 {
					t.Errorf("torn record: Sites=%d", sum.Sites)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open("", footprint.Options{}); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}

// verdictPayload is a stand-in for stubplan's per-binary verdict map —
// the cache treats it as opaque JSON.
type verdictPayload struct {
	Verdicts map[string]string `json:"verdicts"`
}

func TestVerdictRoundTrip(t *testing.T) {
	c := mustOpen(t, t.TempDir(), footprint.Options{})
	key := Key([]byte("\x7fELF verdict bytes"))
	const tag = "v1 policy=1"

	var got verdictPayload
	if c.GetVerdicts(key, tag, &got) {
		t.Fatal("hit on empty cache")
	}
	want := verdictPayload{Verdicts: map[string]string{"write": "required", "prctl": "stubbable"}}
	if err := c.PutVerdicts(key, tag, want); err != nil {
		t.Fatal(err)
	}
	if !c.GetVerdicts(key, tag, &got) {
		t.Fatal("miss after PutVerdicts")
	}
	if got.Verdicts["write"] != "required" || got.Verdicts["prctl"] != "stubbable" {
		t.Errorf("payload changed across the cache: %+v", got)
	}
	st := c.Stats()
	if st.VerdictHits != 1 || st.VerdictMisses != 1 || st.VerdictWrites != 1 {
		t.Errorf("stats = %+v, want 1 verdict hit / 1 miss / 1 write", st)
	}
}

func TestVerdictTagChangeInvalidates(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, footprint.Options{})
	key := Key([]byte("policy drift"))
	if err := c.PutVerdicts(key, "v1 policy=1", verdictPayload{}); err != nil {
		t.Fatal(err)
	}
	// A bumped policy version must fall back to re-emulation, reading
	// from disk (a fresh cache value defeats the memo).
	c2 := mustOpen(t, dir, footprint.Options{})
	var got verdictPayload
	if c2.GetVerdicts(key, "v1 policy=2", &got) {
		t.Fatal("stale verdict record served under a new policy tag")
	}
	st := c2.Stats()
	if st.VerdictInvalidations != 1 || st.VerdictMisses != 1 {
		t.Errorf("stats = %+v, want 1 verdict invalidation / 1 miss", st)
	}
}

func TestVerdictCorruptRecordFallsBackToMiss(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, footprint.Options{})
	key := Key([]byte("corrupt verdicts"))
	const tag = "v1 policy=1"
	if err := c.PutVerdicts(key, tag, verdictPayload{}); err != nil {
		t.Fatal(err)
	}
	path := c.verdictPath(key)
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := mustOpen(t, dir, footprint.Options{})
	var got verdictPayload
	if c2.GetVerdicts(key, tag, &got) {
		t.Fatal("corrupt verdict record served")
	}
	if st := c2.Stats(); st.VerdictInvalidations != 1 {
		t.Errorf("stats = %+v, want 1 verdict invalidation", st)
	}
}

// TestVerdictAndSummaryRecordsCoexist pins the two families to distinct
// files in the same sharded tree — a verdict write must never clobber a
// summary record for the same binary.
func TestVerdictAndSummaryRecordsCoexist(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, footprint.Options{})
	data := []byte("same bytes, two families")
	if err := c.Put(data, testSummary()); err != nil {
		t.Fatal(err)
	}
	if err := c.PutVerdicts(Key(data), "v1 policy=1", verdictPayload{}); err != nil {
		t.Fatal(err)
	}
	c2 := mustOpen(t, dir, footprint.Options{})
	if _, ok := c2.Get(data); !ok {
		t.Error("summary record lost after verdict write")
	}
	var got verdictPayload
	if !c2.GetVerdicts(Key(data), "v1 policy=1", &got) {
		t.Error("verdict record lost after summary write")
	}
}
