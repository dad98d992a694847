package httpapi

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/linuxapi"
	"repro/internal/service"
	"repro/internal/snapshot"
)

var (
	snapOnce     sync.Once
	snapStudyA   *repro.Study
	snapStudyB   *repro.Study
	snapStudyErr error
)

// snapStudies builds two distinct small studies shared by the snapshot
// endpoint tests (study construction dominates test time).
func snapStudies(t *testing.T) (*repro.Study, *repro.Study) {
	t.Helper()
	snapOnce.Do(func() {
		snapStudyA, snapStudyErr = repro.NewStudy(repro.Config{Packages: 120, Installations: 150000, Seed: 41})
		if snapStudyErr != nil {
			return
		}
		snapStudyB, snapStudyErr = repro.NewStudy(repro.Config{Packages: 120, Installations: 150000, Seed: 42})
	})
	if snapStudyErr != nil {
		t.Fatal(snapStudyErr)
	}
	return snapStudyA, snapStudyB
}

// replicaServer stands up an apiserved replica the way cmd/apiserved
// does in -await-snapshot mode: empty study, snapshot manager mounted.
func replicaServer(t *testing.T) (*httptest.Server, *service.Service, *service.SnapshotManager) {
	t.Helper()
	svc := service.New(repro.EmptyStudy(), "awaiting-snapshot", service.Config{})
	mgr, err := service.NewSnapshotManager(svc, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	api := New(svc, Options{RequestTimeout: time.Minute, Snapshots: mgr})
	ts := httptest.NewServer(api)
	t.Cleanup(ts.Close)
	return ts, svc, mgr
}

func postSnapshot(t *testing.T, ts *httptest.Server, data []byte, wantCode int, v any) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/snapshot", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/snapshot = %d, want %d: %s", resp.StatusCode, wantCode, raw)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding push response: %v", err)
		}
	}
}

func TestSnapshotPushLifecycle(t *testing.T) {
	a, b := snapStudies(t)
	ts, svc, _ := replicaServer(t)

	// Before any push the replica reports itself unready.
	var health struct {
		Status   string `json:"status"`
		Packages int    `json:"packages"`
	}
	getJSON(t, ts, "/healthz", http.StatusServiceUnavailable, &health)
	if health.Status != "awaiting snapshot" || health.Packages != 0 {
		t.Fatalf("pre-push healthz = %+v", health)
	}

	gen1, err := a.EncodeSnapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	var info service.SnapshotInfo
	postSnapshot(t, ts, gen1, http.StatusOK, &info)
	if info.Generation != 1 || info.Fingerprint != a.Fingerprint() {
		t.Fatalf("push echo = %+v, want gen 1 fingerprint %q", info, a.Fingerprint())
	}
	getJSON(t, ts, "/healthz", http.StatusOK, &health)
	if health.Status != "ok" || health.Packages == 0 {
		t.Fatalf("post-push healthz = %+v", health)
	}

	// The pushed replica answers queries identically to serving the
	// study in process.
	ref := service.New(a, "in-process", service.Config{})
	var got service.ImportanceResult
	getJSON(t, ts, "/v1/importance/read", http.StatusOK, &got)
	enc, err := ref.ImportanceBytes(-1, "read")
	if err != nil {
		t.Fatal(err)
	}
	var want service.ImportanceResult
	if err := json.Unmarshal(enc.Body, &want); err != nil {
		t.Fatal(err)
	}
	if got.Importance != want.Importance || got.Unweighted != want.Unweighted {
		t.Errorf("served importance %+v, want %+v", got, want)
	}

	// Corrupt bytes: typed 400, served study untouched.
	bad := append([]byte(nil), gen1...)
	bad[len(bad)-2] ^= 0x10
	postSnapshot(t, ts, bad, http.StatusBadRequest, nil)

	// Non-advancing push of different content: 409.
	stale, err := b.EncodeSnapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	postSnapshot(t, ts, stale, http.StatusConflict, nil)
	if svc.Generation() != 1 {
		t.Fatalf("rejected pushes moved generation to %d", svc.Generation())
	}

	gen2, err := b.EncodeSnapshot(2)
	if err != nil {
		t.Fatal(err)
	}
	postSnapshot(t, ts, gen2, http.StatusOK, &info)
	if info.Generation != 2 || svc.Generation() != 2 {
		t.Fatalf("gen-2 push: echo %+v, serving %d", info, svc.Generation())
	}

	// Rollback re-serves generation 1; a second rollback returns to 2.
	postJSON(t, ts, "/v1/snapshot/rollback", nil, http.StatusOK, &info)
	if info.Generation != 1 || svc.Snapshot().Meta.Fingerprint != a.Fingerprint() {
		t.Fatalf("rollback: echo %+v, serving %q", info, svc.Snapshot().Meta.Fingerprint)
	}

	var status service.SnapshotManagerStatus
	getJSON(t, ts, "/v1/snapshot", http.StatusOK, &status)
	if status.Installs != 2 || status.Rollbacks != 1 || status.RejectedStale != 1 || status.RejectedCorrupt != 1 {
		t.Errorf("manager status = %+v", status)
	}
	if status.Current == nil || status.Current.Generation != 1 {
		t.Errorf("status current = %+v, want generation 1", status.Current)
	}

	// Rolling back again swaps forward to generation 2.
	postJSON(t, ts, "/v1/snapshot/rollback", nil, http.StatusOK, &info)
	if info.Generation != 2 {
		t.Fatalf("second rollback landed on generation %d, want 2", info.Generation)
	}

	// /metrics exports the push counters.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, line := range []string{
		"apiserved_snapshot_file_loads_total 4",
		"apiserved_snapshot_from_file 1",
		"apiserved_snapshot_installs_total 2",
		"apiserved_snapshot_rollbacks_total 2",
		"apiserved_snapshot_rejected_stale_total 1",
		"apiserved_snapshot_rejected_corrupt_total 1",
	} {
		if !strings.Contains(text, line) {
			t.Errorf("/metrics missing %q", line)
		}
	}
}

// TestSnapshotPushWrappedTableOffset pushes a checksum-valid snapshot
// whose section-table offset (header bytes 40-47) sits near 2^64, where
// a bounds sum would wrap: the publisher gets the 400 envelope instead
// of a dropped connection, the served study is untouched, and the
// rejection is counted.
func TestSnapshotPushWrappedTableOffset(t *testing.T) {
	a, _ := snapStudies(t)
	ts, svc, _ := replicaServer(t)
	raw, err := a.EncodeSnapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(raw[40:], math.MaxUint64-9)
	clear(raw[56:88]) // re-seal: SHA-256 over the file with its field zeroed
	sum := sha256.Sum256(raw)
	copy(raw[56:], sum[:])

	var e errorBody
	postSnapshot(t, ts, raw, http.StatusBadRequest, &e)
	if !strings.Contains(e.Error, "section table") || e.RequestID == "" {
		t.Errorf("error envelope = %+v", e)
	}
	if gen, pkgs := svc.Generation(), svc.Snapshot().Meta.Packages; gen != 1 || pkgs != 0 {
		t.Errorf("rejected push changed the served study: generation %d, %d packages", gen, pkgs)
	}
	_, page := fetch(t, ts, "GET", "/metrics", "")
	if !strings.Contains(string(page), "\napiserved_snapshot_rejected_corrupt_total 1\n") {
		t.Errorf("rejection not counted:\n%s", page)
	}
}

// TestSnapshotPushFootprintBitPastTable pushes a checksum-valid
// snapshot in which one package's footprint sets a bit past the file's
// API table. Served, the first footprint miss for that package would
// look up a name that does not exist; instead the push gets the 400
// envelope, and the served study and the intern table stay as they
// were.
func TestSnapshotPushFootprintBitPastTable(t *testing.T) {
	a, _ := snapStudies(t)
	ts, svc, _ := replicaServer(t)
	gen1, err := a.EncodeSnapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	postSnapshot(t, ts, gen1, http.StatusOK, nil)
	d, err := a.SnapshotData(2)
	if err != nil {
		t.Fatal(err)
	}
	p := &d.Packages[0]
	_, want := fetch(t, ts, "GET", "/v1/footprint/"+p.Name, "")

	universe := linuxapi.InternUniverse()
	valid, err := snapshot.Encode(d)
	if err != nil {
		t.Fatal(err)
	}
	crafted := withFootprintBit(t, valid, 0, uint32(universe)+43)
	var e errorBody
	postSnapshot(t, ts, crafted, http.StatusBadRequest, &e)
	if !strings.Contains(e.Error, "beyond api table") || e.RequestID == "" {
		t.Errorf("error envelope = %+v", e)
	}
	if gen, fp := svc.Generation(), svc.Snapshot().Meta.Fingerprint; gen != 1 || fp != a.Fingerprint() {
		t.Errorf("rejected push changed the served study: generation %d, fingerprint %s", gen, fp)
	}
	if n := linuxapi.InternUniverse(); n != universe {
		t.Errorf("rejected push grew the intern table from %d to %d entries", universe, n)
	}
	code, got := fetch(t, ts, "GET", "/v1/footprint/"+p.Name, "")
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Errorf("footprint of %s after the rejected push = %d %s, want 200 %s", p.Name, code, got, want)
	}
}

// withFootprintBit returns a resealed copy of the valid snapshot file
// raw in which package pkg's footprint also sets bit id; snapshot.Encode
// refuses to write such a file. The footprint section (id 5) is copied
// to the end of the file with the package's word run grown to reach id,
// the section table points at the copy, and the footprint word offsets
// of the packages after it (the middle of the three prefix arrays that
// end the package section, id 3) move up.
func withFootprintBit(t *testing.T, raw []byte, pkg int, id uint32) []byte {
	t.Helper()
	le := binary.LittleEndian
	out := append([]byte(nil), raw...)
	entry := func(sec uint32) []byte {
		table := out[le.Uint64(out[40:]):]
		for i := range int(le.Uint32(out[48:])) {
			if e := table[24*i : 24*i+24]; le.Uint32(e) == sec {
				return e
			}
		}
		t.Fatalf("no section %d", sec)
		return nil
	}
	col, pkgs := entry(5), entry(3)
	pkgEnd := le.Uint64(pkgs[8:]) + le.Uint64(pkgs[16:])
	n := uint64(le.Uint32(out[le.Uint64(pkgs[8:]):])) + 1
	starts := out[pkgEnd-8*n : pkgEnd-4*n]
	begin, end := le.Uint32(starts[4*pkg:]), le.Uint32(starts[4*pkg+4:])
	grow := max(int(begin+id/64+1)-int(end), 0)
	words := slices.Insert(slices.Clone(out[le.Uint64(col[8:]):][:le.Uint64(col[16:])]), int(end)*8, make([]byte, 8*grow)...)
	for i := pkg + 1; i < int(n); i++ {
		le.PutUint32(starts[4*i:], le.Uint32(starts[4*i:])+uint32(grow))
	}
	w := words[8*(begin+id/64):]
	le.PutUint64(w, le.Uint64(w)|1<<(id%64))
	le.PutUint64(col[8:], uint64(len(out)))
	le.PutUint64(col[16:], uint64(len(words)))
	out = append(out, words...)
	le.PutUint64(out[16:], uint64(len(out)))
	clear(out[56:88]) // re-seal: SHA-256 over the file with its field zeroed
	sum := sha256.Sum256(out)
	copy(out[56:], sum[:])
	return out
}

func TestSnapshotRollbackWithoutPrevious(t *testing.T) {
	ts, _, _ := replicaServer(t)
	postJSON(t, ts, "/v1/snapshot/rollback", nil, http.StatusConflict, nil)
}

func TestSnapshotPushTooLarge(t *testing.T) {
	svc := service.New(repro.EmptyStudy(), "awaiting-snapshot", service.Config{})
	mgr, err := service.NewSnapshotManager(svc, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	api := New(svc, Options{RequestTimeout: time.Minute, Snapshots: mgr, MaxSnapshotBytes: 64})
	ts := httptest.NewServer(api)
	defer ts.Close()
	postSnapshot(t, ts, make([]byte, 256), http.StatusRequestEntityTooLarge, nil)
}

func TestSnapshotRoutesAbsentWithoutManager(t *testing.T) {
	api, _ := testAPI(t)
	ts := httptest.NewServer(api)
	defer ts.Close()
	postSnapshot(t, ts, []byte("x"), http.StatusNotFound, nil)
}
