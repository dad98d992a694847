package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro"
)

var update = flag.Bool("update", false, "rewrite the golden files from current output")

// TestReferenceReportGolden pins the paper's tables at the reference
// scale byte for byte: the report `apistudy -packages 3000 -seed 1504`
// prints, and the fingerprint and SHA-256 of the snapshot that study
// encodes. The snapshot carries the process's API intern table, so the
// digest holds only in a process that analyzed nothing else first; this
// package has no other test.
func TestReferenceReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes a 3,000-package corpus")
	}
	study, err := repro.NewStudyDistributed(repro.Config{
		Packages: 3000, Seed: 1504, Installations: 2935744,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := study.EncodeSnapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "reference_report.txt", study.ReportAll())
	checkGolden(t, "reference_snapshot.txt", fmt.Sprintf("fingerprint %s\nsnapshot_sha256 %x\n",
		study.Fingerprint(), sha256.Sum256(data)))
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden (%d bytes, want %d); the analysis is deterministic, so this is a behavior change",
			name, len(got), len(want))
	}
}
