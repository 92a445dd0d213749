package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/nn"
	"repro/internal/parallel"
)

type wireOp uint8

const (
	opSend wireOp = iota
	opRecv
	opBarrier
)

var wireOpNames = [...]string{"comm.Send", "comm.Recv", "comm.Barrier"}

// wireSpan is one timed transport call.
type wireSpan struct {
	op         wireOp
	peer       int
	start, end time.Duration
}

// timedTransport decorates a comm.Transport the way comm.FaultTransport
// does, timing every Send, Recv and Barrier. One rank's goroutine drives
// it, so it needs no locking.
type timedTransport struct {
	inner comm.Transport
	base  time.Time
	spans []wireSpan

	send, recv, barrier time.Duration
	msgs, words         int64
}

func newTimedTransport(inner comm.Transport, base time.Time) *timedTransport {
	return &timedTransport{inner: inner, base: base, spans: make([]wireSpan, 0, 1<<14)}
}

func (t *timedTransport) record(op wireOp, peer int, start time.Duration) time.Duration {
	end := time.Since(t.base)
	t.spans = append(t.spans, wireSpan{op: op, peer: peer, start: start, end: end})
	return end - start
}

func (t *timedTransport) Rank() int { return t.inner.Rank() }
func (t *timedTransport) Size() int { return t.inner.Size() }

func (t *timedTransport) Send(dst int, p comm.Payload) {
	start := time.Since(t.base)
	t.inner.Send(dst, p)
	t.send += t.record(opSend, dst, start)
	t.msgs++
	t.words += p.Words()
}

func (t *timedTransport) Recv(src int) comm.Payload {
	start := time.Since(t.base)
	p := t.inner.Recv(src)
	t.recv += t.record(opRecv, src, start)
	return p
}

func (t *timedTransport) Barrier() {
	start := time.Since(t.base)
	t.inner.Barrier()
	t.barrier += t.record(opBarrier, -1, start)
}

func (t *timedTransport) Close() error { return t.inner.Close() }

// Abort forwards a failure broadcast to the wrapped transport, as
// comm.FaultTransport does, so a failing rank still stops its peers.
func (t *timedTransport) Abort(reason string) {
	if a, ok := t.inner.(interface{ Abort(string) }); ok {
		a.Abort(reason)
	}
}

// tcpWorld is a traced TCP run the benchmark assembles itself.
type tcpWorld struct {
	call       *callResult
	transports []*timedTransport
	meters     []*comm.Meter
}

// runTracedTCP trains spec over a loopback TCP world built from the
// comm and core layers directly — coordinator, one DialTCP endpoint per
// rank wrapped in a timedTransport, metered Comms, one trainer per rank —
// so every transport call is observable. Its losses must equal the untimed
// cagnet.Train run's bit for bit.
func (r *run) runTracedTCP(req int, spec *callSpec, rec *boundaryRecorder) (*tcpWorld, error) {
	mach, err := costmodel.ProfileByName(spec.Opts.Machine)
	if err != nil {
		return nil, err
	}
	p := spec.Opts.Ranks
	co, err := comm.NewCoordinator("127.0.0.1:0", p)
	if err != nil {
		return nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- co.Serve() }()
	eps := make([]*comm.TCPTransport, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for rk := 0; rk < p; rk++ {
		wg.Add(1)
		go func(rk int) {
			defer wg.Done()
			eps[rk], errs[rk] = comm.DialTCP(co.Addr(), rk, p)
		}(rk)
	}
	wg.Wait()
	if err := <-serveErr; err != nil {
		errs = append(errs, err)
	}
	defer func() {
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
	}()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("tcp rendezvous: %w", err)
		}
	}

	dir, err := os.MkdirTemp(r.tmp, "ckpt-traced-")
	if err != nil {
		return nil, err
	}
	res := &callResult{Spec: spec, Request: req, CkptDir: dir}
	world := &tcpWorld{call: res, transports: make([]*timedTransport, p), meters: make([]*comm.Meter, p)}
	trainers := make([]core.Trainer, p)
	comms := make([]*comm.Comm, p)
	for rk := 0; rk < p; rk++ {
		if trainers[rk], err = core.NewTrainerReplicated(spec.Opts.Algorithm, p, spec.Opts.ReplicationFactor, mach); err != nil {
			return nil, err
		}
	}

	t := time.Now()
	rec.reset(t)
	for rk := 0; rk < p; rk++ {
		world.transports[rk] = newTimedTransport(eps[rk], r.base)
		comms[rk] = comm.NewTransportComm(world.transports[rk], comm.CostParams{Alpha: mach.Alpha, Beta: mach.Beta})
		world.meters[rk] = comms[rk].EnableMetering()
		if err := core.SetTransportComm(trainers[rk], comms[rk]); err != nil {
			return nil, err
		}
	}
	problem := core.Problem{
		A:          r.ds.Graph.NormalizedAdjacency(),
		Features:   r.ds.Features,
		Labels:     r.ds.Labels,
		Checkpoint: checkpoint.Options{Dir: dir, Every: checkpointEvery, Keep: checkpointKeep},
		Drain:      rec.hook,
		Config: nn.Config{
			Widths: r.ds.LayerWidths(),
			LR:     0.01,
			Epochs: spec.Opts.Epochs,
			Seed:   r.seed,
		},
	}
	results := make([]*core.Result, p)
	leave := parallel.EnterRanks(p)
	for rk := 0; rk < p; rk++ {
		wg.Add(1)
		go func(rk int) {
			defer wg.Done()
			results[rk], errs[rk] = trainers[rk].Train(problem)
		}(rk)
	}
	wg.Wait()
	leave()
	res.Start = t.Sub(r.base)
	res.End = time.Since(r.base)
	for rk, err := range errs[:p] {
		if err != nil {
			res.Err = fmt.Errorf("traced tcp rank %d: %w", rk, err)
			return world, nil
		}
	}
	res.Report = &cagnet.TrainReport{Losses: results[0].Losses}
	for _, b := range rec.boundaries(nil) {
		res.Bounds = append(res.Bounds, res.Start+b)
	}
	if len(res.Bounds) < 2 {
		res.fail("needs at least 2 epochs to time, got %d", len(res.Bounds))
	}
	return world, nil
}

// wireSpans adds every rank's transport calls to the trace, each under
// the epoch span of the traced call that contains its start.
func (w *tcpWorld) wireSpans(t *tracer, callID int) {
	first, last := callID+1, len(t.spans)
	for rk, tr := range w.transports {
		for _, s := range tr.spans {
			name := wireOpNames[s.op]
			if s.peer >= 0 {
				name = fmt.Sprintf("%s %d", name, s.peer)
			}
			t.add(span{
				Name: name, Layer: "comm", Start: s.start, End: s.end,
				Parent: t.epochParent(first, last, s.start, callID),
				Req:    w.call.Request, Track: 1 + rk,
			})
		}
	}
}

// wireMetrics summarizes the traced world's transport calls and meters:
// times are per rank per epoch (mean over ranks), counts per epoch summed
// over ranks.
func (w *tcpWorld) wireMetrics(epochS float64) []metric {
	p := float64(len(w.transports))
	epochs := float64(len(w.call.Report.Losses))
	var send, recv, barrier time.Duration
	var msgs, words int64
	var collective float64
	var ms, ws, ss []float64
	for rk, tr := range w.transports {
		send += tr.send
		recv += tr.recv
		barrier += tr.barrier
		msgs += tr.msgs
		words += tr.words
		collective += w.meters[rk].TotalSeconds()
		m, wd, s := w.meters[rk].Samples()
		ms, ws, ss = append(ms, m...), append(ws, wd...), append(ss, s...)
	}
	perRankEpoch := func(d time.Duration) float64 { return d.Seconds() / p / epochs }
	out := []metric{
		measured("comm.send_s", "s", perRankEpoch(send)),
		measured("comm.recv_wait_s", "s", perRankEpoch(recv)),
		measured("comm.barrier_s", "s", perRankEpoch(barrier)),
		measured("comm.msgs", "count", float64(msgs)/epochs),
		measured("comm.wire_mb", "MB", float64(words)*8/1e6/epochs),
		measured("comm.collective_s", "s", collective/p/epochs),
		measured("comm.wait_frac", "ratio", (perRankEpoch(recv)+perRankEpoch(barrier))/epochS),
	}
	if a, b, err := costmodel.FitAlphaBeta(ms, ws, ss); err == nil {
		out = append(out, measured("comm.fit_alpha_us", "us", a*1e6), measured("comm.fit_beta_ns", "ns/word", b*1e9))
	} else {
		out = append(out, unmeasured("comm.fit_alpha_us", "us", err.Error()), unmeasured("comm.fit_beta_ns", "ns/word", err.Error()))
	}
	return out
}

// checkpointMetrics replays Load on the traced world's newest snapshot and
// Save of the same state into a fresh directory.
func (w *tcpWorld) checkpointMetrics(p *replayer, tmp string) []metric {
	dir := w.call.CkptDir
	path, err := checkpoint.Latest(dir)
	if err == nil && path == "" {
		err = fmt.Errorf("no snapshot in %s", dir)
	}
	var fi os.FileInfo
	if err == nil {
		fi, err = os.Stat(path)
	}
	var snap *checkpoint.Snapshot
	var files []string
	if err == nil {
		snap, err = checkpoint.Load(path)
	}
	if err == nil {
		files, err = filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	}
	var saveDir string
	if err == nil {
		saveDir, err = os.MkdirTemp(tmp, "ckpt-save-")
	}
	if err != nil {
		why := err.Error()
		return []metric{
			unmeasured("checkpoint.save_s", "s", why), unmeasured("checkpoint.load_s", "s", why),
			unmeasured("checkpoint.bytes", "bytes", why), unmeasured("checkpoint.files", "count", why),
		}
	}
	load := p.timed("checkpoint.Load", "checkpoint", func() { _, err = checkpoint.Load(path) })
	save := p.timed("checkpoint.Save", "checkpoint", func() { _, err = checkpoint.Save(saveDir, snap) })
	out := []metric{
		measured("checkpoint.save_s", "s", save),
		measured("checkpoint.load_s", "s", load),
		measured("checkpoint.bytes", "bytes", float64(fi.Size())),
		measured("checkpoint.files", "count", float64(len(files))),
	}
	if err != nil {
		w.call.fail("checkpoint replay: %v", err)
	}
	return out
}
