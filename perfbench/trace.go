package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans are recorded by the
// benchmark around its own calls into the system's public functions,
// never inside the system.
type span struct {
	// ID is shared by every span of one request or one binary.
	ID   uint64 `json:"id"`
	Name string `json:"name"`
	// Parent indexes the enclosing span; -1 for a root.
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code pays one nil check per boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its handle (-1 when t is
// nil).
func (t *tracer) begin(id uint64, name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span h and returns its duration (0 when t is nil).
func (t *tracer) end(h int) time.Duration {
	if t == nil || h < 0 {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[h].End = now
	return now - t.spans[h].Start
}

// recorded copies the spans recorded so far.
func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans at path, one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.recorded() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// layerTime totals the closed spans of one name: how many, their summed
// duration, and their summed self time.
type layerTime struct {
	Count       int
	Total, Self time.Duration
}

// selfTimes totals spans by name. A span's self time is its duration
// minus the union of its children's intervals clipped to it, so children
// that overlap, like work fanned out in parallel, are not subtracted
// twice.
func selfTimes(spans []span) map[string]*layerTime {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]*layerTime)
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.Total += d
		lt.Self += d - covered(spans, children[i], s.Start, s.End)
	}
	return out
}

// covered returns the length of the union of the intervals of the spans
// at idx, clipped to [lo, hi].
func covered(spans []span, idx []int, lo, hi time.Duration) time.Duration {
	type interval struct{ a, b time.Duration }
	ivs := make([]interval, 0, len(idx))
	for _, j := range idx {
		a, b := max(spans[j].Start, lo), min(spans[j].End, hi)
		if b > a {
			ivs = append(ivs, interval{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	var total time.Duration
	for k := 0; k < len(ivs); {
		a, b := ivs[k].a, ivs[k].b
		for k++; k < len(ivs) && ivs[k].a <= b; k++ {
			b = max(b, ivs[k].b)
		}
		total += b - a
	}
	return total
}
