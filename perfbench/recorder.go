package main

import (
	"sync/atomic"
	"time"
)

// boundaryRecorder observes epoch boundaries from outside the trainer. Its
// hook is installed as TrainOptions.Drain, which the engine polls once per
// rank at every epoch boundary; the hook stamps the monotonic clock and
// always votes "keep training".
//
// The drain vote is all-reduced right after the poll, so no rank can poll
// epoch e+1 before every rank has polled epoch e: arrival i belongs to
// epoch i/P, and the epoch's boundary is the latest of its P stamps. The
// stamp storage is allocated up front, so the hook itself never
// allocates and the trainer's steady state stays allocation-free.
type boundaryRecorder struct {
	ranks  int
	base   time.Time
	n      atomic.Int64
	stamps []time.Duration // arrival order, offsets from base

	// onBoundary, when set, runs on the goroutine of the P-th arrival of
	// each epoch (traced runs only; it may allocate).
	onBoundary func(epoch int)

	hook func() bool // cached method value, so installing it never allocates
}

func newBoundaryRecorder(ranks, epochs int) *boundaryRecorder {
	r := &boundaryRecorder{ranks: ranks, stamps: make([]time.Duration, ranks*epochs)}
	r.hook = r.poll
	return r
}

// reset rearms the recorder for a new call whose offsets count from base.
func (r *boundaryRecorder) reset(base time.Time) {
	r.base = base
	r.n.Store(0)
}

func (r *boundaryRecorder) poll() bool {
	i := int(r.n.Add(1) - 1)
	if i < len(r.stamps) {
		r.stamps[i] = time.Since(r.base)
		if r.onBoundary != nil && i%r.ranks == r.ranks-1 {
			r.onBoundary(i / r.ranks)
		}
	}
	return false
}

// arrivals returns how many hook calls the last call made.
func (r *boundaryRecorder) arrivals() int { return int(r.n.Load()) }

// boundaries appends one offset per completed epoch — the last of that
// epoch's P arrivals — to dst. Read it only after Train has returned.
func (r *boundaryRecorder) boundaries(dst []time.Duration) []time.Duration {
	n := min(r.arrivals(), len(r.stamps)) / r.ranks
	for e := 0; e < n; e++ {
		last := r.stamps[e*r.ranks]
		for _, s := range r.stamps[e*r.ranks+1 : (e+1)*r.ranks] {
			last = max(last, s)
		}
		dst = append(dst, last)
	}
	return dst
}
