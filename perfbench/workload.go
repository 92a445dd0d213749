package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro"
	"repro/internal/graph"
)

// callSpec is one cagnet.Train call of a request.
type callSpec struct {
	// Name labels the configuration in metric names (core.epoch_s.<Name>).
	Name string
	Opts cagnet.TrainOptions
	// Checkpoint writes snapshots every checkpointEvery epochs, keeping
	// checkpointKeep, into a fresh temp directory per call.
	Checkpoint bool
}

const (
	checkpointEvery = 5
	checkpointKeep  = 2
)

// A run always makes at least minRequests requests, however long they
// take, and builds the dataset buildRepeats times to take the median.
const (
	minRequests  = 4
	buildRepeats = 3
)

func (c *callSpec) ranks() int {
	if c.Opts.Algorithm == "serial" {
		return 1
	}
	return c.Opts.Ranks
}

func (c *callSpec) distributed() bool { return c.Opts.Algorithm != "serial" }

// workload is a named closed-loop request: its calls run in order, and
// the next request starts only when the previous one has returned.
type workload struct {
	Name  string
	Calls []callSpec
}

// defaultAnalog is the dataset shape every workload trains on; the run's
// seed replaces its Seed.
const defaultAnalog = "reddit-sim"

// base fills the options every call shares: the default parallel backend
// and the summit-v100 machine profile for all modeled numbers.
func base(o cagnet.TrainOptions) cagnet.TrainOptions {
	o.Backend = "parallel"
	o.Machine = "summit-v100"
	return o
}

var workloads = []workload{
	{
		Name: "serial-reddit",
		Calls: []callSpec{
			{Name: "serial", Opts: base(cagnet.TrainOptions{Algorithm: "serial", Epochs: 60})},
		},
	},
	{
		Name: "dist-reddit",
		Calls: []callSpec{
			{Name: "1d-halo", Opts: base(cagnet.TrainOptions{Algorithm: "1d", Ranks: 4, HaloExchange: true, Partitioner: "ldg", Epochs: 10})},
			{Name: "1.5d", Opts: base(cagnet.TrainOptions{Algorithm: "1.5d", Ranks: 4, ReplicationFactor: 2, Epochs: 10})},
			{Name: "2d-overlap", Opts: base(cagnet.TrainOptions{Algorithm: "2d", Ranks: 4, Overlap: true, Epochs: 10})},
			{Name: "3d", Opts: base(cagnet.TrainOptions{Algorithm: "3d", Ranks: 8, Epochs: 10})},
		},
	},
	{
		Name: "tcp-reddit",
		Calls: []callSpec{
			{Name: "2d-tcp", Opts: base(cagnet.TrainOptions{Algorithm: "2d", Ranks: 4, Transport: "tcp", Epochs: 30}), Checkpoint: true},
		},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// callResult is one finished Train call, with its epoch boundaries as
// offsets from the run's start.
type callResult struct {
	Spec    *callSpec
	Request int // -1 for reference calls made by the output checks; the traced request is numbered after the loop's
	Start   time.Duration
	End     time.Duration
	Bounds  []time.Duration
	Report  *cagnet.TrainReport
	CkptDir string
	Err     error
	// Failures lists the output checks this call failed.
	Failures []string
}

func (c *callResult) fail(format string, args ...any) {
	c.Failures = append(c.Failures, fmt.Sprintf(format, args...))
}

func (c *callResult) failed() bool { return c.Err != nil || len(c.Failures) > 0 }

// gaps returns the steady-state epoch durations: the spans between
// consecutive boundaries, from epoch 2 onward.
func (c *callResult) gaps() []time.Duration {
	var out []time.Duration
	for e := 1; e < len(c.Bounds); e++ {
		out = append(out, c.Bounds[e]-c.Bounds[e-1])
	}
	return out
}

// firstEpoch is the call's start to its first epoch boundary: setup plus
// one epoch.
func (c *callResult) firstEpoch() time.Duration { return c.Bounds[0] - c.Start }

// setup is firstEpoch minus the call's own median epoch.
func (c *callResult) setup() float64 {
	return c.firstEpoch().Seconds() - medianDuration(c.gaps())
}

// finalize is the last boundary to the call's return: the final forward
// pass and output gather.
func (c *callResult) finalize() time.Duration { return c.End - c.Bounds[len(c.Bounds)-1] }

// run is one benchmark process's state for one workload.
type run struct {
	w      workload
	seed   int64
	analog graph.AnalogSpec
	tmp    string // scratch directory for checkpoints, inside the checkout
	base   time.Time
	ds     *graph.Dataset

	builds       []time.Duration
	buildAllocMB float64
	requests     [][]*callResult
	requestWall  []time.Duration
	allocMB      float64 // TotalAlloc per request over the request loop
	gcPerRequest float64
	recorders    []*boundaryRecorder
	extraCalls   []*callResult // reference and traced calls
	traceWorld   *tcpWorld     // the traced TCP world, when the workload has one
}

func newRun(w workload, seed int64, analog graph.AnalogSpec, tmp string) *run {
	// cagnet.Train initializes weights from seed 1 when given 0; the
	// traced world and the replays build nn.Config themselves, so the run
	// takes the same seed once for everything.
	if seed == 0 {
		seed = 1
	}
	analog.Seed = seed
	r := &run{w: w, seed: seed, analog: analog, tmp: tmp}
	for i := range w.Calls {
		c := &w.Calls[i]
		r.recorders = append(r.recorders, newBoundaryRecorder(c.ranks(), c.Opts.Epochs))
	}
	return r
}

// build generates the dataset from the seed buildRepeats times, keeping
// the last; setup_s charges the median build.
func (r *run) build() {
	var before, after runtime.MemStats
	for i := 0; i < buildRepeats; i++ {
		runtime.ReadMemStats(&before)
		t := time.Now()
		r.ds = r.analog.Build()
		r.builds = append(r.builds, time.Since(t))
		runtime.ReadMemStats(&after)
		r.buildAllocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	}
}

// loop runs requests in a closed loop with one client. A new request
// starts only while the median request so far still fits in the time
// budget, and at least minRequests run, so the loop ends close to budget
// without a long overshoot.
func (r *run) loop(budget time.Duration) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for req := 0; ; req++ {
		if req >= minRequests {
			next := time.Duration(medianDuration(r.requestWall) * float64(time.Second))
			if time.Since(start)+next > budget {
				break
			}
		}
		t := time.Now()
		calls := make([]*callResult, len(r.w.Calls))
		for i := range r.w.Calls {
			calls[i] = r.call(req, &r.w.Calls[i], r.recorders[i], nil)
		}
		r.requestWall = append(r.requestWall, time.Since(t))
		r.requests = append(r.requests, calls)
	}
	runtime.ReadMemStats(&after)
	n := float64(len(r.requests))
	r.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / n
	r.gcPerRequest = float64(after.NumGC-before.NumGC) / n
}

// call runs one Train call with the boundary hook installed. opts
// overrides the spec's options when non-nil (reference calls).
func (r *run) call(req int, spec *callSpec, rec *boundaryRecorder, opts *cagnet.TrainOptions) *callResult {
	o := spec.Opts
	if opts != nil {
		o = *opts
	}
	o.Seed = r.seed
	o.Drain = rec.hook
	res := &callResult{Spec: spec, Request: req}
	if spec.Checkpoint && opts == nil {
		dir, err := os.MkdirTemp(r.tmp, "ckpt-")
		if err != nil {
			res.Err = err
			return res
		}
		res.CkptDir = dir
		o.Checkpoint = cagnet.CheckpointOptions{Dir: dir, Every: checkpointEvery, Keep: checkpointKeep}
	}
	t := time.Now()
	rec.reset(t)
	rep, err := cagnet.Train(r.ds, o)
	res.Start = t.Sub(r.base)
	res.End = res.Start + time.Since(t)
	res.Report, res.Err = rep, err
	if err != nil {
		return res
	}
	for _, b := range rec.boundaries(nil) {
		res.Bounds = append(res.Bounds, res.Start+b)
	}
	if want := o.Epochs * rec.ranks; rec.arrivals() != want {
		res.fail("saw %d epoch-boundary polls, want %d", rec.arrivals(), want)
	}
	if len(res.Bounds) < 2 {
		res.fail("needs at least 2 epochs to time, got %d", len(res.Bounds))
	}
	return res
}

// allCalls returns every call the run made: requests, then references.
func (r *run) allCalls() []*callResult {
	return append(r.requestCalls(), r.extraCalls...)
}

// requestCalls returns the request loop's calls (no reference calls).
func (r *run) requestCalls() []*callResult {
	var out []*callResult
	for _, req := range r.requests {
		out = append(out, req...)
	}
	return out
}

// accounting returns (calls attempted, calls failed).
func (r *run) accounting() (attempted, failed int) {
	for _, c := range r.allCalls() {
		attempted++
		if c.failed() {
			failed++
		}
	}
	return attempted, failed
}
