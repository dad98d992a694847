package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Parent: -1, Start: 0, End: 100},
		// Two overlapping children cover [10, 50): 40, not 30 + 30.
		{ID: 1, Name: "lookup", Parent: 0, Start: 10, End: 40},
		{ID: 1, Name: "lookup", Parent: 0, Start: 20, End: 50},
		{ID: 1, Name: "encode", Parent: 0, Start: 60, End: 70},
		// A child that outlives its parent counts only inside it.
		{ID: 1, Name: "flush", Parent: 0, Start: 95, End: 120},
		// A grandchild is its parent's, not the root's.
		{ID: 1, Name: "hash", Parent: 3, Start: 62, End: 66},
		// A span never closed is ignored.
		{ID: 2, Name: "request", Parent: -1, Start: 200, End: -1},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"request": {Count: 1, Total: 100, Self: 100 - 40 - 10 - 5},
		"lookup":  {Count: 2, Total: 60, Self: 60},
		"encode":  {Count: 1, Total: 10, Self: 6},
		"flush":   {Count: 1, Total: 25, Self: 25},
		"hash":    {Count: 1, Total: 4, Self: 4},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d span names, want %d: %v", len(got), len(want), got)
	}
	for name, w := range want {
		if g := got[name]; g == nil || *g != w {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
}

func TestCoveredMergesAndClips(t *testing.T) {
	spans := []span{
		{Start: 5, End: 15},
		{Start: 30, End: 40},
		{Start: 10, End: 20},
		{Start: 38, End: 60},
		{Start: 70, End: 80},
	}
	// Union inside [0, 50] is [5, 20) and [30, 50): 15 + 20.
	if got := covered(spans, []int{0, 1, 2, 3, 4}, 0, 50); got != 35 {
		t.Errorf("covered = %d, want 35", got)
	}
	if got := covered(spans, nil, 0, 50); got != 0 {
		t.Errorf("covered by no children = %d, want 0", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	h := tr.begin(1, "x", -1)
	if d := tr.end(h); h != -1 || d != 0 {
		t.Errorf("nil tracer: handle %d, duration %v", h, d)
	}
	tr = newTracer()
	root := tr.begin(7, "root", -1)
	child := tr.begin(7, "child", root)
	time.Sleep(time.Millisecond)
	if d := tr.end(child); d < time.Millisecond {
		t.Errorf("child span lasted %v, want at least 1ms", d)
	}
	tr.end(root)
	spans := tr.recorded()
	if len(spans) != 2 || spans[1].Parent != root || spans[0].ID != 7 || spans[1].ID != 7 {
		t.Errorf("recorded %+v", spans)
	}
}
