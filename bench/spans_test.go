package main

import (
	"errors"
	"testing"
	"time"
)

// A rep of 100ns with children [10,40) and [30,70) (overlapping, so their
// union is 60ns) and a grandchild [12,20) under the first child.
func testSpans() []span {
	return []span{
		{Name: "rep", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "leaf", Start: 12, End: 20, Parent: 1},
		{Name: "b", Start: 30, End: 70, Parent: 0},
		{Name: "rep", Start: 100, End: 110, Parent: -1},
		{Name: "a", Start: 101, End: 109, Parent: 4},
	}
}

func TestSelfTimes(t *testing.T) {
	got := selfTimes(testSpans())
	want := []int64{40, 22, 8, 40, 2, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestCoverage(t *testing.T) {
	spans := testSpans()
	if got := coverage(spans, 0); got != 0.6 {
		t.Errorf("coverage of the first rep = %g, want 0.6", got)
	}
	if got := coverage(spans, 4); got != 0.8 {
		t.Errorf("coverage of the second rep = %g, want 0.8", got)
	}
	// A child running past its parent counts only inside the parent.
	clipped := []span{{Start: 0, End: 10, Parent: -1}, {Start: 5, End: 50, Parent: 0}}
	if got := coverage(clipped, 0); got != 0.5 {
		t.Errorf("clipped coverage = %g, want 0.5", got)
	}
}

// TestSelfByName keeps each rep's ledger to its own descendants.
func TestSelfByName(t *testing.T) {
	spans := testSpans()
	self := selfTimes(spans)
	first := selfByName(spans, self, 0)
	if first["a"] != 22 || first["leaf"] != 8 || first["b"] != 40 || len(first) != 3 {
		t.Errorf("first rep ledger = %v", first)
	}
	if second := selfByName(spans, self, 4); second["a"] != 8 || len(second) != 1 {
		t.Errorf("second rep ledger = %v", second)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("rep")
	boom := errors.New("boom")
	if _, err := tr.timed("outer", func() error {
		_, err := tr.timed("inner", func() error { return boom })
		return err
	}); !errors.Is(err, boom) {
		t.Fatalf("timed lost the error: %v", err)
	}
	tr.end(root)
	if len(tr.spans) != 3 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != 1 || tr.open != -1 {
		t.Fatalf("spans = %+v, open = %d", tr.spans, tr.open)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}

	// A nil tracer records nothing but still measures.
	var none *tracer
	d, err := none.timed("x", func() error { time.Sleep(time.Millisecond); return nil })
	if err != nil || d < time.Millisecond {
		t.Errorf("nil tracer timed %v, %v", d, err)
	}
}
