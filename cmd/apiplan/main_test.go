package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

var update = flag.Bool("update", false, "rewrite the golden file from current output")

// TestAllPlansGolden pins the stub-aware plans `apiplan -all -packages
// 200` prints: the SHA-256 of the whole output, and per system the
// summary fields (presence, stub-aware and final completeness, and the
// implement/fake/stub counts), so a drift names the system it hit. It
// also pins the matrix build's deterministic counts: a change to the
// emulator that executes other instructions moves steps or emulations
// even where no verdict changes.
func TestAllPlansGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("emulates every executable of a 200-package corpus")
	}
	study, err := repro.NewStudyCached(repro.Config{Packages: 200, Seed: 1504}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, plans := buildPlans(study, nil, allSystems())
	// §2.3: every API a baseline run observed is in its package's static
	// footprint.
	if m.Stats.StaticMisses != 0 {
		t.Errorf("%d dynamically observed APIs fall outside their static footprints", m.Stats.StaticMisses)
	}
	var out bytes.Buffer
	if err := writeJSON(&out, plans); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sha256 %x\n", sha256.Sum256(out.Bytes()))
	fmt.Fprintf(&b, "matrix binaries=%d emulations=%d steps=%d inconclusive=%d\n",
		m.Stats.Binaries, m.Stats.Emulations, m.Stats.Steps, m.Stats.Inconclusive)
	for _, p := range plans {
		fmt.Fprintf(&b, "%s%s presence=%v stub_aware=%v final=%v implement=%d fake=%d stub=%d\n",
			p.System, p.Version, p.PresenceCompleteness, p.StubAwareCompleteness, p.FinalCompleteness,
			p.Implement, p.Fake, p.Stub)
	}
	got := b.String()

	path := filepath.Join("testdata", "all_plans.txt")
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
		t.Errorf("plans differ from the golden:\n got: %s\nwant: %s", got, want)
	}
}
