package metrics_test

import (
	"fmt"

	"repro/internal/footprint"
	"repro/internal/linuxapi"
	"repro/internal/metrics"
	"repro/internal/popcon"
)

// ExampleImportance computes Appendix A.1's metric for a toy corpus: two
// half-installed packages sharing one API combine to 75%.
func ExampleImportance() {
	sv := popcon.NewSurvey(100)
	sv.Set("alpha", 50)
	sv.Set("beta", 50)

	use := func(names ...string) *footprint.BitSet {
		fp := make(footprint.Set)
		for _, n := range names {
			fp.Add(linuxapi.Sys(n))
		}
		return footprint.SetBits(fp)
	}
	in := &metrics.Input{
		Survey: sv,
		Footprints: map[string]*footprint.BitSet{
			"alpha": use("mount", "read"),
			"beta":  use("mount"),
		},
	}
	imp := metrics.Importance(in)
	fmt.Printf("mount: %.2f\n", imp[linuxapi.Sys("mount")])
	fmt.Printf("read:  %.2f\n", imp[linuxapi.Sys("read")])
	// Output:
	// mount: 0.75
	// read:  0.50
}
