package main

import (
	"fmt"
	"time"
)

// Names of the end-to-end metrics BENCHMARK.json lists: the ones every
// workload measures, none reads as 0, and whose run-to-run spread stays
// inside a bound of at most 25%. comm_words and modeled_epoch_s are not
// measured on serial-reddit and failed_frac is 0 on a good run (the result
// line carries it as attempted/failed). epoch_tail_s is printed but not
// listed: on a shared 2-vCPU host, CPU stolen by neighbouring machines
// moved its quartile spread across seeds to 13-64%.
var jsonEndToEnd = []string{"setup_s", "epoch_s", "run_s", "alloc_mb"}

// pooledGaps returns the steady-state epoch gaps of every successful
// request call.
func (r *run) pooledGaps() []time.Duration {
	var gaps []time.Duration
	for _, c := range r.requestCalls() {
		if c.Err == nil {
			gaps = append(gaps, c.gaps()...)
		}
	}
	return gaps
}

// minGaps is the number of steady-state epoch gaps every run has at
// least: minRequests requests of the workload's calls.
func (r *run) minGaps() int {
	n := 0
	for i := range r.w.Calls {
		n += r.w.Calls[i].Opts.Epochs - 1
	}
	return minRequests * n
}

// endToEnd computes the workload's end-to-end metrics from an untraced
// request loop.
func (r *run) endToEnd() []metric {
	build := medianDuration(r.builds)
	var setups []float64
	for _, req := range r.requests {
		s := 0.0
		for _, c := range req {
			if c.Err == nil && len(c.Bounds) >= 2 {
				s += c.setup()
			}
		}
		setups = append(setups, s)
	}
	gaps := r.pooledGaps()
	out := []metric{
		measured("setup_s", "s", build+median(setups)),
		measured("epoch_s", "s", medianDuration(gaps)),
	}
	if q, ok := tailQuantile(r.minGaps()); ok && len(gaps) >= r.minGaps() {
		m := measured("epoch_tail_s", "s", nearestRank(gaps, q))
		m.Note = fmt.Sprintf("p%.2f of %d gaps", 100*q, len(gaps))
		out = append(out, m)
	} else {
		out = append(out, unmeasured("epoch_tail_s", "s", fmt.Sprintf("only %d gaps", len(gaps))))
	}
	out = append(out,
		measured("run_s", "s", build+medianDuration(r.requestWall)),
		measured("alloc_mb", "MB", r.allocMB),
	)
	words, modeled, ok := r.modeledPerEpoch()
	if ok {
		out = append(out,
			measured("comm_words", "words/epoch", words),
			measured("modeled_epoch_s", "s", modeled))
	} else {
		out = append(out,
			unmeasured("comm_words", "words/epoch", "no fabric"),
			unmeasured("modeled_epoch_s", "s", "no fabric"))
	}
	attempted, failed := r.accounting()
	ff := measured("failed_frac", "ratio", float64(failed)/float64(max(attempted, 1)))
	ff.Note = fmt.Sprintf("%d of %d calls", failed, attempted)
	return append(out, ff)
}

// modeledPerEpoch sums the first request's distributed calls' modeled
// words (per-rank max, all categories) and modeled seconds, divided by
// their epochs. The values are exact and the checks require every request
// to repeat them, so one request stands for all.
func (r *run) modeledPerEpoch() (words, seconds float64, ok bool) {
	if len(r.requests) == 0 {
		return 0, 0, false
	}
	epochs := 0
	for _, c := range r.requests[0] {
		if c.Err != nil || !c.Spec.distributed() {
			continue
		}
		for _, w := range c.Report.WordsByCategory {
			words += float64(w)
		}
		seconds += c.Report.ModeledSeconds
		epochs += len(c.Report.Losses)
	}
	if epochs == 0 {
		return 0, 0, false
	}
	return words / float64(epochs), seconds / float64(epochs), true
}
