package main

import (
	"sync"
	"testing"
	"time"
)

// TestBoundaryRecorderLastArrival drives the hook the way the engine does:
// P goroutines poll once per epoch, then meet in a collective before the
// next poll. Each epoch's boundary must be the latest of its P stamps.
func TestBoundaryRecorderLastArrival(t *testing.T) {
	const ranks, epochs = 4, 6
	rec := newBoundaryRecorder(ranks, epochs)
	rec.reset(time.Now())
	var wg sync.WaitGroup
	for e := 0; e < epochs; e++ {
		// Stagger the ranks so arrival order differs from rank order.
		for rk := 0; rk < ranks; rk++ {
			wg.Add(1)
			go func(rk int) {
				defer wg.Done()
				time.Sleep(time.Duration((rk*7+e*3)%ranks) * 200 * time.Microsecond)
				rec.hook()
			}(rk)
		}
		wg.Wait() // the drain vote's all-reduce
	}
	if got := rec.arrivals(); got != ranks*epochs {
		t.Fatalf("arrivals = %d, want %d", got, ranks*epochs)
	}
	bounds := rec.boundaries(nil)
	if len(bounds) != epochs {
		t.Fatalf("%d boundaries, want %d", len(bounds), epochs)
	}
	for e, b := range bounds {
		group := rec.stamps[e*ranks : (e+1)*ranks]
		found := false
		for _, s := range group {
			if s > b {
				t.Fatalf("epoch %d: boundary %v precedes arrival %v", e, b, s)
			}
			found = found || s == b
		}
		if !found {
			t.Fatalf("epoch %d: boundary %v is none of the epoch's stamps %v", e, b, group)
		}
		if e > 0 && b <= bounds[e-1] {
			t.Fatalf("boundaries not increasing: %v", bounds)
		}
	}
}

// TestBoundaryRecorderAllocFree pins that the hook never allocates, so
// installing it keeps the trainer's steady state allocation-free.
func TestBoundaryRecorderAllocFree(t *testing.T) {
	rec := newBoundaryRecorder(2, 200)
	rec.reset(time.Now())
	hook := rec.hook
	if a := testing.AllocsPerRun(100, func() { hook() }); a != 0 {
		t.Fatalf("hook allocates %v times per call", a)
	}
}

// TestBoundaryRecorderOverflow: polls beyond the preallocated storage are
// counted but not stored, and never panic.
func TestBoundaryRecorderOverflow(t *testing.T) {
	rec := newBoundaryRecorder(2, 2)
	rec.reset(time.Now())
	for i := 0; i < 7; i++ {
		if rec.hook() {
			t.Fatal("hook voted to drain")
		}
	}
	if rec.arrivals() != 7 {
		t.Fatalf("arrivals = %d, want 7", rec.arrivals())
	}
	if n := len(rec.boundaries(nil)); n != 2 {
		t.Fatalf("%d boundaries from 2-epoch storage", n)
	}
	rec.reset(time.Now())
	if rec.arrivals() != 0 || len(rec.boundaries(nil)) != 0 {
		t.Fatal("reset left arrivals behind")
	}
}
