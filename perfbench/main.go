// Command perfbench is the repository's end-to-end benchmark. It trains
// one named workload in a closed loop through cagnet.Train for a fixed
// time, checks every output, and prints the workload's metrics with
// units; the last line of standard output is one JSON result object.
//
//	go run . --workload serial-reddit --seed 1 --seconds 30 --trace 0
//
// With --trace 1 it also replays the layers' exported calls on the run's
// own matrices and, for the TCP workload, runs a world it assembles from
// the comm and core layers with every transport call timed; it prints the
// per-layer metrics and writes a Chrome trace-event file. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// Names of the per-layer metrics BENCHMARK.json lists: those every
// workload measures. The traced run prints the rest too, flagged when a
// workload does not exercise the layer.
var jsonPerLayer = []string{
	"graph.build_s", "graph.adjacency_s", "graph.edges",
	"sparse.newcsr_s", "sparse.normalize_s", "sparse.transpose_plan_s", "sparse.nnz",
	"sparse.spmm_s", "sparse.spmmt_s", "sparse.spmm_gflops", "sparse.spmm_gbps",
	"dense.gemm_s", "dense.gemm_gflops", "dense.relu_s", "dense.logsoftmax_fwd_s", "dense.logsoftmax_bwd_s",
	"nn.loss_s", "nn.optimizer_s",
	"core.kernel_coverage",
	"runtime.alloc_mb_setup", "runtime.alloc_mb_epochs", "runtime.gc_cycles",
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // directory for the trace file, digests and scratch

	// analog and epochCap shrink the workloads for tests; the command
	// always runs the full reddit-sim shape (epochCap 0).
	analog   graph.AnalogSpec
	epochCap int
}

func main() {
	os.Exit(run0(os.Args[1:], os.Stdout, os.Stderr))
}

// run0 parses the command line and runs the benchmark, returning the exit
// code: 0 on success, 1 when any call or output check failed, 2 on a
// usage or environment error (no result line then).
func run0(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{}
	fs.StringVar(&cfg.workload, "workload", "", "workload: serial-reddit, dist-reddit or tcp-reddit")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed (dataset and weight initialization)")
	fs.IntVar(&cfg.seconds, "seconds", 30, "time budget of the request loop")
	trace := fs.Int("trace", 0, "1 = traced run with per-layer metrics and a trace file")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "output directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if cfg.seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be at least 1, got %d\n", cfg.seconds)
		return 2
	}
	cfg.trace = *trace == 1
	spec, err := graph.AnalogByName(defaultAnalog)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cfg.analog = spec
	code, err := bench(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
	}
	return code
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func bench(cfg config, stdout io.Writer) (int, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return 2, err
	}
	if cfg.epochCap > 0 {
		w = capEpochs(w, cfg.epochCap)
	}
	tmp := filepath.Join(cfg.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return 2, err
	}
	tmp, err = os.MkdirTemp(tmp, "run-")
	if err != nil {
		return 2, err
	}
	defer os.RemoveAll(tmp)

	r := newRun(w, cfg.seed, cfg.analog, tmp)
	tr := &tracer{}
	r.base = time.Now()
	root := tr.add(span{Name: "run " + w.Name, Layer: "bench", Parent: -1, Req: -1})

	r.build()
	at := time.Duration(0)
	for _, b := range r.builds {
		tr.add(span{Name: "graph.Build", Layer: "graph", Start: at, End: at + b, Parent: root, Req: -1})
		at += b
	}
	r.loop(time.Duration(cfg.seconds) * time.Second)
	for i, req := range r.requests {
		id := tr.add(span{Name: fmt.Sprintf("request %d", i), Layer: "bench", Start: req[0].Start, End: req[len(req)-1].End, Parent: root, Req: i})
		for _, c := range req {
			tr.callSpans(c, id)
		}
	}
	checkStart := time.Since(r.base)
	r.check(filepath.Join(cfg.out, "digests"))
	tr.add(span{Name: "output checks", Layer: "bench", Start: checkStart, End: time.Since(r.base), Parent: root, Req: -1})

	e2e := r.endToEnd()
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%v requests=%d\n",
		w.Name, cfg.seed, cfg.seconds, cfg.trace, len(r.requests))
	fmt.Fprintln(stdout, "# end-to-end")
	for _, m := range e2e {
		fmt.Fprintln(stdout, m)
	}
	names := jsonEndToEnd
	all := e2e
	if cfg.trace {
		layers := r.traced(tr, root, e2e, cfg.out, cfg.seed, stdout)
		names, all = jsonPerLayer, layers
	}
	tr.spans[root].End = time.Since(r.base)

	attempted, failed := r.accounting()
	for _, c := range r.allCalls() {
		if c.Err != nil {
			fmt.Fprintf(stdout, "# FAILED %s request %d: %v\n", c.Spec.Name, c.Request, c.Err)
		}
		for _, f := range c.Failures {
			fmt.Fprintf(stdout, "# FAILED %s request %d: %s\n", c.Spec.Name, c.Request, f)
		}
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	byName := map[string]metric{}
	for _, m := range all {
		byName[m.Name] = m
	}
	for _, n := range names {
		m, ok := byName[n]
		if !ok || !m.Measured {
			// A metric BENCHMARK.json promises must be measured on every
			// workload; a gap here is a benchmark fault, not a result.
			res.Correct = false
			m = unmeasured(n, m.Unit, "missing")
		}
		res.Metrics[n] = m
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 2, err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1, errors.New("output checks failed")
	}
	return 0, nil
}

// capEpochs returns a copy of w with every call's epochs capped at n
// (tests run the workloads at tiny scale).
func capEpochs(w workload, n int) workload {
	calls := append([]callSpec(nil), w.Calls...)
	for i := range calls {
		calls[i].Opts.Epochs = min(calls[i].Opts.Epochs, n)
	}
	w.Calls = calls
	return w
}

// traced runs the per-layer measurements after the untraced request loop:
// one traced request (for tcp-reddit, the self-assembled TCP world), the
// layer replays, and the trace file. It prints the per-layer table and
// returns the per-layer metrics.
func (r *run) traced(tr *tracer, root int, e2e []metric, out string, seed int64, stdout io.Writer) []metric {
	// The traced TCP world and the replays call the layers directly, not
	// through cagnet.Train, so they take the backend every call asks for
	// themselves rather than whatever the process was started with.
	defer parallel.AcquireBackend(parallel.BackendParallel)()
	var untracedEpoch float64
	for _, m := range e2e {
		if m.Name == "epoch_s" {
			untracedEpoch = m.Value
		}
	}
	var layers []metric

	tracedID := tr.add(span{Name: "traced request", Layer: "bench", Start: time.Since(r.base), Parent: root, Req: len(r.requests)})
	tracedEpoch, extra := r.tracedRequest(tr, tracedID)
	tr.spans[tracedID].End = time.Since(r.base)
	layers = append(layers, extra...)

	replayID := tr.add(span{Name: "layer replay", Layer: "bench", Start: time.Since(r.base), Parent: root, Req: -1})
	p := &replayer{t: tr, parent: replayID, base: r.base}
	replayed, kernelS := r.replayLayers(p)
	layers = append(layers, replayed...)
	if r.traceWorld != nil {
		layers = append(layers, r.traceWorld.checkpointMetrics(p, r.tmp)...)
	} else {
		why := "no checkpointing call"
		layers = append(layers,
			unmeasured("checkpoint.save_s", "s", why), unmeasured("checkpoint.load_s", "s", why),
			unmeasured("checkpoint.bytes", "bytes", why), unmeasured("checkpoint.files", "count", why))
	}
	tr.spans[replayID].End = time.Since(r.base)

	layers = append(layers,
		measured("graph.build_s", "s", medianDuration(r.builds)),
		measured("runtime.alloc_mb_setup", "MB", r.buildAllocMB),
		measured("runtime.gc_cycles", "count", r.gcPerRequest),
		measured("core.kernel_coverage", "ratio", kernelS/untracedEpoch),
		measured("trace.overhead_s", "s", tracedEpoch-untracedEpoch),
		measured("trace.overhead_frac", "ratio", (tracedEpoch-untracedEpoch)/untracedEpoch),
	)
	layers = append(layers, r.coreMetrics()...)
	layers = append(layers, r.commModelMetrics()...)
	sort.SliceStable(layers, func(i, j int) bool { return layers[i].Name < layers[j].Name })

	fmt.Fprintln(stdout, "# per-layer")
	for _, m := range layers {
		fmt.Fprintln(stdout, m)
	}
	table := selfTable(tr.spans)
	fmt.Fprintln(stdout, "# self time by layer (traced run)")
	for _, row := range table {
		fmt.Fprintf(stdout, "%-12s %8d spans %12.6f s\n", row.Layer, row.Spans, row.SelfS)
	}
	fmt.Fprintf(stdout, "# tracing overhead: traced epoch_s %.6g s - untraced epoch_s %.6g s = %.6g s\n",
		tracedEpoch, untracedEpoch, tracedEpoch-untracedEpoch)

	tr.spans[root].End = time.Since(r.base)
	path := filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.json", r.w.Name, seed))
	other := map[string]any{
		"workload": r.w.Name, "seed": seed,
		"self_time": table,
		"overhead":  map[string]float64{"traced_epoch_s": tracedEpoch, "untraced_epoch_s": untracedEpoch},
	}
	if err := writeChromeTrace(path, tr.spans, other); err != nil {
		fmt.Fprintf(stdout, "# trace file not written: %v\n", err)
	} else {
		fmt.Fprintf(stdout, "# trace written to %s (%d spans)\n", path, len(tr.spans))
	}
	return layers
}

// tracedRequest runs one more request with tracing hooks on and returns
// its pooled median epoch and the metrics only it observes. Serial and
// in-process calls read MemStats at their first and last boundaries; the
// TCP call runs in a world the benchmark assembles, with every transport
// call timed. Its calls are checked against the loop's like any request.
func (r *run) tracedRequest(tr *tracer, parent int) (float64, []metric) {
	req := len(r.requests)
	var calls []*callResult
	var stats []metric
	var allocBytes uint64
	var steadyEpochs int
	for i := range r.w.Calls {
		spec := &r.w.Calls[i]
		rec := newBoundaryRecorder(spec.ranks(), spec.Opts.Epochs)
		var first, last runtime.MemStats
		rec.onBoundary = func(epoch int) {
			switch epoch {
			case 0:
				runtime.ReadMemStats(&first)
			case spec.Opts.Epochs - 1:
				runtime.ReadMemStats(&last)
			}
		}
		var c *callResult
		if spec.Opts.Transport == "tcp" {
			world, err := r.runTracedTCP(req, spec, rec)
			if err != nil {
				c = &callResult{Spec: spec, Request: req, Err: err}
			} else {
				c = world.call
				r.traceWorld = world
			}
		} else {
			c = r.call(req, spec, rec, nil)
		}
		r.extraCalls = append(r.extraCalls, c)
		if c.Err != nil || len(c.Bounds) < 2 {
			continue
		}
		calls = append(calls, c)
		allocBytes += last.TotalAlloc - first.TotalAlloc
		steadyEpochs += len(c.Bounds) - 1
		id := tr.callSpans(c, parent)
		if r.traceWorld != nil && c == r.traceWorld.call {
			tr.spans[id].Name = "call " + spec.Name + " (traced transport)"
			r.traceWorld.wireSpans(tr, id)
		}
	}
	// The traced calls must train the very models the loop trained.
	for _, c := range calls {
		for _, ref := range r.requestCalls() {
			if ref.Spec.Name == c.Spec.Name && ref.Err == nil {
				if !bitEqual(c.Report.Losses, ref.Report.Losses) {
					c.fail("traced losses differ bitwise from the untimed run")
				}
				break
			}
		}
	}
	var gaps []time.Duration
	for _, c := range calls {
		gaps = append(gaps, c.gaps()...)
	}
	tracedEpoch := medianDuration(gaps)
	if steadyEpochs > 0 {
		stats = append(stats, measured("runtime.alloc_mb_epochs", "MB", float64(allocBytes)/1e6/float64(steadyEpochs)))
	} else {
		stats = append(stats, unmeasured("runtime.alloc_mb_epochs", "MB", "no traced epochs"))
	}
	if r.traceWorld != nil && r.traceWorld.call.Err == nil {
		stats = append(stats, r.traceWorld.wireMetrics(tracedEpoch)...)
	} else {
		why := "in-process fabric: transport calls are not observable from outside"
		if !r.hasDistributed() {
			why = "no fabric"
		}
		for _, m := range []struct{ name, unit string }{
			{"comm.send_s", "s"}, {"comm.recv_wait_s", "s"}, {"comm.barrier_s", "s"},
			{"comm.msgs", "count"}, {"comm.wire_mb", "MB"}, {"comm.collective_s", "s"},
			{"comm.wait_frac", "ratio"}, {"comm.fit_alpha_us", "us"}, {"comm.fit_beta_ns", "ns/word"},
		} {
			stats = append(stats, unmeasured(m.name, m.unit, why))
		}
	}
	return tracedEpoch, stats
}

func (r *run) hasDistributed() bool { return r.maxDistributedEpochs() > 0 }

// coreMetrics reports each configuration's call phases as medians over
// the loop's requests.
func (r *run) coreMetrics() []metric {
	var out []metric
	for i := range r.w.Calls {
		spec := &r.w.Calls[i]
		var call, first, fin []time.Duration
		var gaps []time.Duration
		for _, c := range r.requestCalls() {
			if c.Spec != spec || c.Err != nil || len(c.Bounds) < 2 {
				continue
			}
			call = append(call, c.End-c.Start)
			first = append(first, c.firstEpoch())
			fin = append(fin, c.finalize())
			gaps = append(gaps, c.gaps()...)
		}
		out = append(out,
			measured("core.call_s."+spec.Name, "s", medianDuration(call)),
			measured("core.first_epoch_s."+spec.Name, "s", medianDuration(first)),
			measured("core.epoch_s."+spec.Name, "s", medianDuration(gaps)),
			measured("core.finalize_s."+spec.Name, "s", medianDuration(fin)),
		)
	}
	return out
}

// commModelMetrics reports the modeled per-epoch words and seconds by
// Figure 3 category, summed over the first request's distributed calls,
// and the share of modeled communication hidden behind compute.
func (r *run) commModelMetrics() []metric {
	cats := []string{"dcomm", "scomm", "trpose", "misc"}
	if !r.hasDistributed() || len(r.requests) == 0 {
		var out []metric
		for _, c := range cats {
			out = append(out, unmeasured("comm.words."+c, "words/epoch", "no fabric"), unmeasured("comm.modeled_s."+c, "s", "no fabric"))
		}
		return append(out, unmeasured("comm.hidden_frac", "ratio", "no fabric"))
	}
	words := map[string]float64{}
	secs := map[string]float64{}
	var hidden, commTotal float64
	epochs := 0
	for _, c := range r.requests[0] {
		if c.Err != nil || !c.Spec.distributed() {
			continue
		}
		for _, cat := range cats {
			words[cat] += float64(c.Report.WordsByCategory[cat])
			secs[cat] += c.Report.TimeByCategory[cat]
			commTotal += c.Report.TimeByCategory[cat]
		}
		hidden += c.Report.HiddenCommSeconds
		epochs += len(c.Report.Losses)
	}
	var out []metric
	for _, cat := range cats {
		out = append(out,
			measured("comm.words."+cat, "words/epoch", words[cat]/float64(epochs)),
			measured("comm.modeled_s."+cat, "s", secs[cat]/float64(epochs)))
	}
	return append(out, measured("comm.hidden_frac", "ratio", hidden/commTotal))
}
