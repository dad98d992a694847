// Package obs is the one place that knows the Prometheus text
// exposition format (version 0.0.4). There is no registry: each
// subsystem keeps its own counters and, at scrape time, writes its own
// families through a Writer, which renders every family the same way —
// HELP, then TYPE, then all of its samples — with label values escaped
// and integers printed as integers. Histogram is the fixed-bound
// duration histogram those families render; observing one is atomic
// adds only, so it can sit on a request path.
package obs

import (
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Type is a family's metric type.
type Type string

// The metric types the writer renders.
const (
	TypeCounter   Type = "counter"
	TypeGauge     Type = "gauge"
	TypeHistogram Type = "histogram"
)

// Writer accumulates one scrape's page. Family writes a family's HELP
// and TYPE lines, and every sample written after it belongs to that
// family, so a family's samples always form one group under its name.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	name string // current family
	typ  Type
	seen map[string]bool
}

// Family starts the named family. Writing a family twice is a
// programming error (it would split the family), so it panics.
func (w *Writer) Family(name string, typ Type, help string) {
	if w.seen[name] {
		panic("obs: family " + name + " written twice")
	}
	if w.seen == nil {
		w.seen = make(map[string]bool)
	}
	w.seen[name] = true
	w.name, w.typ = name, typ
	w.buf = fmt.Appendf(w.buf, "# HELP %s %s\n# TYPE %s %s\n", name, appendEscaped(nil, help, false), name, typ)
}

// Value is a sample value: integers print as integers, floats in the
// shortest form that reads back exactly, booleans as 1 or 0.
type Value interface {
	bool | int | int64 | uint64 | float64
}

// Sample writes one sample of the current counter or gauge family;
// labels are name, value pairs.
func Sample[V Value](w *Writer, v V, labels ...string) {
	if w.typ == TypeHistogram {
		panic("obs: plain sample in histogram family " + w.name)
	}
	w.series("", labels)
	var x any = v
	if b, ok := x.(bool); ok {
		x = 0
		if b {
			x = 1
		}
	}
	w.buf = fmt.Appendf(w.buf, "%v\n", x)
}

// Counter writes a counter family with one unlabelled sample.
func Counter[V Value](w *Writer, name, help string, v V) {
	w.Family(name, TypeCounter, help)
	Sample(w, v)
}

// Gauge writes a gauge family with one unlabelled sample.
func Gauge[V Value](w *Writer, name, help string, v V) {
	w.Family(name, TypeGauge, help)
	Sample(w, v)
}

// Histogram writes h as samples of the current histogram family:
// cumulative buckets ending in +Inf, then the sum and the count, all
// under labels (name, value pairs).
func (w *Writer) Histogram(h *Histogram, labels ...string) {
	if w.typ != TypeHistogram {
		panic("obs: histogram in non-histogram family " + w.name)
	}
	bucket := append(labels[:len(labels):len(labels)], "le", "")
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if i < len(h.bounds) {
			bucket[len(bucket)-1] = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
		} else {
			bucket[len(bucket)-1] = "+Inf"
		}
		w.series("_bucket", bucket)
		w.buf = fmt.Appendf(w.buf, "%d\n", cum)
	}
	w.series("_sum", labels)
	w.buf = fmt.Appendf(w.buf, "%v\n", float64(h.sum.Load())/float64(h.unit))
	w.series("_count", labels)
	w.buf = fmt.Appendf(w.buf, "%d\n", cum)
}

// series writes a sample's name and labels, up to its value.
func (w *Writer) series(suffix string, labels []string) {
	if w.name == "" || len(labels)%2 != 0 {
		panic("obs: sample outside a family, or an odd label list")
	}
	w.buf = append(append(w.buf, w.name...), suffix...)
	sep := byte('{')
	for i := 0; i < len(labels); i += 2 {
		w.buf = append(append(append(w.buf, sep), labels[i]...), `="`...)
		w.buf = append(appendEscaped(w.buf, labels[i+1], true), '"')
		sep = ','
	}
	if len(labels) > 0 {
		w.buf = append(w.buf, '}')
	}
	w.buf = append(w.buf, ' ')
}

// appendEscaped escapes a backslash and a newline, and a double quote
// inside a label value, as the text format requires.
func appendEscaped(b []byte, s string, quoted bool) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\' || c == '"' && quoted:
			b = append(b, '\\', c)
		case c == '\n':
			b = append(b, `\n`...)
		default:
			b = append(b, c)
		}
	}
	return b
}

// String returns the page written so far.
func (w *Writer) String() string { return string(w.buf) }

// Handler serves the page fn writes, rendered fresh on every request.
func Handler(fn func(*Writer)) http.HandlerFunc {
	return func(rw http.ResponseWriter, _ *http.Request) {
		var w Writer
		fn(&w)
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4")
		rw.Write(w.buf)
	}
}

// Histogram counts durations into fixed buckets. Observe is two atomic
// adds — no lock, no compare-and-swap loop — and the count is the sum
// of the buckets, so a rendered +Inf bucket always equals _count.
type Histogram struct {
	unit   time.Duration   // unit of the bounds and the rendered sum
	bounds []float64       // ascending upper bounds, in unit
	counts []atomic.Uint64 // per bucket, not cumulative; the last is +Inf
	sum    atomic.Int64    // nanoseconds
}

// NewHistogram returns a histogram over the given ascending upper
// bounds, expressed (and rendered) in unit, e.g. time.Second.
func NewHistogram(unit time.Duration, bounds []float64) *Histogram {
	return &Histogram{unit: unit, bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	v, i := float64(d)/float64(h.unit), 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
}

// Merge adds o's observations to h; the two must share bounds.
func (h *Histogram) Merge(o *Histogram) {
	for i := range o.counts {
		h.counts[i].Add(o.counts[i].Load())
	}
	h.sum.Add(o.sum.Load())
}
