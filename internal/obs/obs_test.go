package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFamilyAndValues(t *testing.T) {
	var w Writer
	Counter(&w, "a_total", "Things counted.", uint64(1<<63))
	Gauge(&w, "b", "Signed level.", int64(-3))
	Gauge(&w, "c_enabled", "A flag.", true)
	Gauge(&w, "d_ratio", "A ratio.", 0.25)
	w.Family("e_total", TypeCounter, "Labelled.")
	Sample(&w, 7, "kind", "x")
	Sample(&w, 0, "kind", "y")
	Gauge(&w, "f", "Integral float.", 2.0)
	Gauge(&w, "g", "Large float.", 1e6)
	want := `# HELP a_total Things counted.
# TYPE a_total counter
a_total 9223372036854775808
# HELP b Signed level.
# TYPE b gauge
b -3
# HELP c_enabled A flag.
# TYPE c_enabled gauge
c_enabled 1
# HELP d_ratio A ratio.
# TYPE d_ratio gauge
d_ratio 0.25
# HELP e_total Labelled.
# TYPE e_total counter
e_total{kind="x"} 7
e_total{kind="y"} 0
# HELP f Integral float.
# TYPE f gauge
f 2
# HELP g Large float.
# TYPE g gauge
g 1e+06
`
	if got := w.String(); got != want {
		t.Errorf("page:\n%s\nwant:\n%s", got, want)
	}
}

func TestEscaping(t *testing.T) {
	var w Writer
	w.Family("esc", TypeGauge, "Help with \\ and\nnewline and \"quotes\".")
	Sample(&w, 1, "path", `C:\dir`, "msg", "say \"hi\"\nbye")
	want := "# HELP esc Help with \\\\ and\\nnewline and \"quotes\".\n" +
		"# TYPE esc gauge\n" +
		`esc{path="C:\\dir",msg="say \"hi\"\nbye"} 1` + "\n"
	if got := w.String(); got != want {
		t.Errorf("page:\n%s\nwant:\n%s", got, want)
	}
}

func TestHistogramRendering(t *testing.T) {
	h := NewHistogram(time.Second, []float64{0.0005, 0.001, 0.25})
	for _, d := range []time.Duration{
		100 * time.Microsecond, 500 * time.Microsecond, // both <= 0.0005
		time.Millisecond, // == 0.001
		200 * time.Millisecond,
		2 * time.Second, // +Inf only
	} {
		h.Observe(d)
	}
	var w Writer
	w.Family("lat_seconds", TypeHistogram, "Latency.")
	w.Histogram(h, "route", "GET /x")
	agg := NewHistogram(time.Second, []float64{0.0005, 0.001, 0.25})
	agg.Merge(h)
	agg.Merge(h)
	w.Family("all_seconds", TypeHistogram, "Aggregate.")
	w.Histogram(agg)
	want := `# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{route="GET /x",le="0.0005"} 2
lat_seconds_bucket{route="GET /x",le="0.001"} 3
lat_seconds_bucket{route="GET /x",le="0.25"} 4
lat_seconds_bucket{route="GET /x",le="+Inf"} 5
lat_seconds_sum{route="GET /x"} 2.2016
lat_seconds_count{route="GET /x"} 5
# HELP all_seconds Aggregate.
# TYPE all_seconds histogram
all_seconds_bucket{le="0.0005"} 4
all_seconds_bucket{le="0.001"} 6
all_seconds_bucket{le="0.25"} 8
all_seconds_bucket{le="+Inf"} 10
all_seconds_sum 4.4032
all_seconds_count 10
`
	if got := w.String(); got != want {
		t.Errorf("page:\n%s\nwant:\n%s", got, want)
	}

	ms := NewHistogram(time.Millisecond, []float64{5, 300000})
	ms.Observe(1500 * time.Microsecond)
	var mw Writer
	mw.Family("job_ms", TypeHistogram, "Job time.")
	mw.Histogram(ms, "type", "ok")
	for _, line := range []string{
		`job_ms_bucket{type="ok",le="5"} 1`,
		`job_ms_bucket{type="ok",le="300000"} 1`,
		`job_ms_sum{type="ok"} 1.5`,
		`job_ms_count{type="ok"} 1`,
	} {
		if !strings.Contains(mw.String(), line+"\n") {
			t.Errorf("millisecond histogram missing %q:\n%s", line, mw.String())
		}
	}
}

// TestHistogramConcurrentObserve observes from several goroutines at
// once (run under -race): every observation lands in exactly one bucket.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(time.Second, []float64{0.001, 0.01})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(g*i) * time.Microsecond)
			}
		}(g)
	}
	var w Writer
	w.Family("c_seconds", TypeHistogram, "Concurrent.")
	w.Histogram(h) // a scrape racing the observers
	wg.Wait()
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	if total != 4000 {
		t.Errorf("observed %d, want 4000", total)
	}
}

func TestWriterPanics(t *testing.T) {
	for name, fn := range map[string]func(w *Writer){
		"duplicate family": func(w *Writer) {
			Counter(w, "x_total", "Once.", 1)
			Counter(w, "x_total", "Twice.", 2)
		},
		"sample before family": func(w *Writer) { Sample(w, 1) },
		"odd labels": func(w *Writer) {
			w.Family("y", TypeGauge, "Odd.")
			Sample(w, 1, "lonely")
		},
		"plain sample in histogram": func(w *Writer) {
			w.Family("z_seconds", TypeHistogram, "H.")
			Sample(w, 1)
		},
		"histogram in gauge": func(w *Writer) {
			w.Family("z", TypeGauge, "G.")
			w.Histogram(NewHistogram(time.Second, nil))
		},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn(&Writer{})
		})
	}
}

func TestNaNAndInf(t *testing.T) {
	var w Writer
	Gauge(&w, "n", "NaN.", math.NaN())
	Gauge(&w, "i", "Inf.", math.Inf(1))
	if got := w.String(); !strings.Contains(got, "\nn NaN\n") || !strings.Contains(got, "\ni +Inf\n") {
		t.Errorf("special values:\n%s", got)
	}
}
