package service

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/linuxapi"
)

// FuzzCanonicalQuery takes a comma-separated name list and a reordered,
// duplicated, space-padded copy of it. The two normalize to the same
// canonical key, so once both are warm, completeness and suggest answer
// them with the same bytes and ETag. Query names, whatever they hold,
// must not grow the intern table.
func FuzzCanonicalQuery(f *testing.F) {
	svc := newTestService(f, Config{})
	f.Fuzz(func(t *testing.T, list string) {
		names := strings.Split(list, ",")
		variant := make([]string, 0, 2*len(names))
		for i := len(names) - 1; i >= 0; i-- {
			variant = append(variant, " "+names[i]+"\t", names[i])
		}
		interned := len(linuxapi.InternedAPIs())
		queries := map[string]func([]string) (Encoded, error){
			"completeness": func(n []string) (Encoded, error) { return svc.CompletenessBytes(-1, n) },
			"suggest":      func(n []string) (Encoded, error) { return svc.SuggestBytes(-1, n, 3) },
		}
		for name, query := range queries {
			var warm [2]Encoded
			for i, n := range [][]string{names, variant, names, variant} {
				enc, err := query(n)
				if err != nil {
					t.Fatalf("%s(%q): %v", name, n, err)
				}
				if i >= 2 {
					warm[i-2] = enc
				}
			}
			if !bytes.Equal(warm[0].Body, warm[1].Body) || warm[0].ETag != warm[1].ETag {
				t.Fatalf("%s: %q answered %s (%s), its variant %s (%s)",
					name, list, warm[0].Body, warm[0].ETag, warm[1].Body, warm[1].ETag)
			}
		}
		if got := len(linuxapi.InternedAPIs()); got != interned {
			t.Fatalf("%q grew the intern table from %d to %d APIs", list, interned, got)
		}
	})
}
