package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fuzzRecordID names the one record FuzzSpoolRecord writes; seeds whose
// "id" differs exercise the file-name check.
const fuzzRecordID = "j-0123456789abcdef"

// writeSpoolRecord puts raw at the spool path of job id under dir.
func writeSpoolRecord(tb testing.TB, dir, id string, raw []byte) string {
	tb.Helper()
	path := filepath.Join(dir, "jobs", id+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

// FuzzSpoolRecord writes one arbitrary job record into a spool, starts
// a manager with one registered executor over it, gives an adopted job
// a moment to run, and closes the manager. Spool records are read back
// from disk, so recovery must fail closed: nothing may panic, Start must
// not fail because of a record, and the record is skipped at most once.
// Seeds live in testdata/fuzz/FuzzSpoolRecord.
func FuzzSpoolRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		writeSpoolRecord(t, dir, fuzzRecordID, raw)
		m := New(Config{
			SpoolDir:  dir,
			Workers:   1,
			RetryBase: time.Millisecond,
			RetryMax:  2 * time.Millisecond,
			ResultTTL: 100 * 365 * 24 * time.Hour,
		})
		// Odd-length params fail transiently, so both the done and the
		// retry paths run.
		err := m.Register(fnExec{typ: "work", fn: func(_ context.Context, p json.RawMessage) (any, error) {
			if len(p)%2 == 1 {
				return nil, errors.New("transient")
			}
			return json.RawMessage(p), nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		if n := m.Stats().SpoolSkipped; n > 1 {
			t.Fatalf("one record counted as %d skipped", n)
		}
		m.Wait(context.Background(), fuzzRecordID, 50*time.Millisecond)
		m.Close()
	})
}
