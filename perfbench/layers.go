package main

import (
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// replayReps is how many timed repetitions each replayed layer call gets
// (after one untimed warm-up); the metric is their median.
const replayReps = 5

// replayer times the benchmark's own calls into the program's layers, each
// repetition recorded as a span under parent.
type replayer struct {
	t      *tracer
	parent int
	base   time.Time
}

func (p *replayer) timed(name, layer string, fn func()) float64 {
	fn()
	ds := make([]time.Duration, 0, replayReps)
	for i := 0; i < replayReps; i++ {
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		start := t0.Sub(p.base)
		p.t.add(span{Name: name, Layer: layer, Start: start, End: start + d, Parent: p.parent, Req: -1})
		ds = append(ds, d)
	}
	return medianDuration(ds)
}

// spmmBytes is the computed traffic of SpMM over a: the CSR arrays once,
// one dense row of k values gathered per nonzero, and the n×k output
// written once.
func spmmBytes(a *sparse.CSR, k int) float64 {
	n, nnz := int64(a.Rows), int64(a.NNZ())
	return 8 * float64(n+1+2*nnz+nnz*int64(k)+n*int64(k))
}

func gemmFlops(m, k, n int) float64 { return 2 * float64(m) * float64(k) * float64(n) }

// replayLayers replays the setup calls and the exact kernel shapes of one
// serial epoch on the run's own matrices, plus — for a workload with a
// partitioned call — the LDG partition, relabel and halo plans. It
// returns the layer metrics and the summed time of the epoch kernels.
func (r *run) replayLayers(p *replayer) (out []metric, kernelS float64) {
	ds := r.ds
	g := ds.Graph
	n := g.NumVertices

	var adj, ahat *sparse.CSR
	var plan *sparse.TransposePlan
	out = append(out,
		measured("graph.adjacency_s", "s", p.timed("graph.Adjacency", "graph", func() { adj = g.Adjacency() })),
		measured("graph.edges", "count", float64(g.NumEdges())))
	entries := adj.Entries()
	out = append(out,
		measured("sparse.newcsr_s", "s", p.timed("sparse.NewCSR", "sparse", func() { sparse.NewCSR(n, n, entries) })),
		measured("sparse.normalize_s", "s", p.timed("sparse.NormalizeSymmetric", "sparse", func() { ahat = sparse.NormalizeSymmetric(adj) })),
		measured("sparse.transpose_plan_s", "s", p.timed("sparse.NewTransposePlan", "sparse", func() { plan = sparse.NewTransposePlan(ahat) })),
	)
	out = append(out, r.replayPartition(p, ahat)...)
	out = append(out, measured("sparse.nnz", "count", float64(ahat.NNZ())))

	// One serial epoch's operands, computed once with real values so the
	// ReLU mask and the softmax see what training sees.
	cfg := nn.Config{Widths: ds.LayerWidths(), Epochs: 1, Seed: r.seed}.WithDefaults()
	w := nn.InitWeights(cfg)
	f0, f1, f2 := cfg.Widths[0], cfg.Widths[1], cfg.Widths[2]
	h0 := ds.Features
	t1, h1, t2 := dense.New(n, f0), dense.New(n, f1), dense.New(n, f1)
	z2, h2, dh2, g2 := dense.New(n, f2), dense.New(n, f2), dense.New(n, f2), dense.New(n, f2)
	ag2, ag1, g1 := dense.New(n, f2), dense.New(n, f1), dense.New(n, f1)
	dw1, dw2 := dense.New(f0, f1), dense.New(f1, f2)
	z1, r1 := dense.New(n, f1), dense.New(n, f1)
	plan.SpMMT(t1, h0)
	dense.MulBiasReLU(h1, t1, w[0], nil)
	plan.SpMMT(t2, h1)
	dense.Mul(z2, t2, w[1])
	dense.LogSoftmaxForwardOf(h2, z2)
	nn.NLLLossMaskedInto(dh2, h2, ds.Labels, nil, 0, n)
	dense.LogSoftmaxBackwardOf(g2, dh2, z2)
	sparse.SpMM(ag2, ahat, g2)
	dense.MulTReLUMask(g1, ag2, w[1], h1)
	sparse.SpMM(ag1, ahat, g1)
	dense.Mul(z1, t1, w[0])

	spmmt := p.timed("sparse.SpMMT f0", "sparse", func() { plan.SpMMT(t1, h0) }) +
		p.timed("sparse.SpMMT f1", "sparse", func() { plan.SpMMT(t2, h1) })
	spmm := p.timed("sparse.SpMM f2", "sparse", func() { sparse.SpMM(ag2, ahat, g2) }) +
		p.timed("sparse.SpMM f1", "sparse", func() { sparse.SpMM(ag1, ahat, g1) })
	spmmFlops := float64(sparse.SpMMFlops(ahat, f2) + sparse.SpMMFlops(ahat, f1))
	gemm := p.timed("dense.MulBiasReLU", "dense", func() { dense.MulBiasReLU(r1, t1, w[0], nil) }) +
		p.timed("dense.Mul", "dense", func() { dense.Mul(z2, t2, w[1]) }) +
		p.timed("dense.TMul f1xf2", "dense", func() { dense.TMul(dw2, h1, ag2) }) +
		p.timed("dense.MulTReLUMask", "dense", func() { dense.MulTReLUMask(g1, ag2, w[1], h1) }) +
		p.timed("dense.TMul f0xf1", "dense", func() { dense.TMul(dw1, h0, ag1) })
	gemmFl := gemmFlops(n, f0, f1) + gemmFlops(n, f1, f2) + gemmFlops(f1, n, f2) + gemmFlops(n, f2, f1) + gemmFlops(f0, n, f1)
	relu := p.timed("dense.ReLUForward", "dense", func() { dense.ReLUForwardOf(r1, z1) }) +
		p.timed("dense.ReLUBackward", "dense", func() { dense.ReLUBackwardOf(r1, g1, z1) })
	lsmF := p.timed("dense.LogSoftmaxForward", "dense", func() { dense.LogSoftmaxForwardOf(h2, z2) })
	lsmB := p.timed("dense.LogSoftmaxBackward", "dense", func() { dense.LogSoftmaxBackwardOf(g2, dh2, z2) })
	loss := p.timed("nn.NLLLossMaskedInto", "nn", func() { nn.NLLLossMaskedInto(dh2, h2, ds.Labels, nil, 0, n) })
	opt := cfg.NewOptimizer()
	grads := []*dense.Matrix{dw1, dw2}
	step := p.timed("nn.Optimizer.Step", "nn", func() { opt.Step(w, grads) })

	out = append(out,
		measured("sparse.spmm_s", "s", spmm),
		measured("sparse.spmmt_s", "s", spmmt),
		measured("sparse.spmm_gflops", "GFLOP/s", spmmFlops/spmm/1e9),
		measured("sparse.spmm_gbps", "GB/s", (spmmBytes(ahat, f2)+spmmBytes(ahat, f1))/spmm/1e9),
		measured("dense.gemm_s", "s", gemm),
		measured("dense.gemm_gflops", "GFLOP/s", gemmFl/gemm/1e9),
		measured("dense.relu_s", "s", relu),
		measured("dense.logsoftmax_fwd_s", "s", lsmF),
		measured("dense.logsoftmax_bwd_s", "s", lsmB),
		measured("nn.loss_s", "s", loss),
		measured("nn.optimizer_s", "s", step),
	)
	// The serial trainer fuses ReLU into its GEMMs, so relu_s (the
	// unfused pair the distributed trainers run) is not part of its epoch.
	return out, spmm + spmmt + gemm + lsmF + lsmB + loss + step
}

// replayPartition times the 1D partitioned call's setup — LDG, the
// relabel, and every rank's halo plan — when the workload has one.
func (r *run) replayPartition(p *replayer, ahat *sparse.CSR) []metric {
	var spec *callSpec
	for i := range r.w.Calls {
		if c := &r.w.Calls[i]; c.Opts.Partitioner != "" && c.Opts.HaloExchange {
			spec = c
		}
	}
	if spec == nil {
		why := "no partitioned call"
		return []metric{
			unmeasured("partition.ldg_s", "s", why),
			unmeasured("partition.max_cut", "count", why),
			unmeasured("partition.total_cut", "count", why),
			unmeasured("core.relabel_s", "s", why),
			unmeasured("sparse.halo_plan_s", "s", why),
		}
	}
	g := r.ds.Graph
	parts := spec.Opts.Ranks
	assign, err := partition.ByName(spec.Opts.Partitioner)
	if err != nil {
		return []metric{unmeasured("partition.ldg_s", "s", err.Error())}
	}
	var a partition.Assignment
	ldg := p.timed("partition.LDG", "partition", func() { a = assign(g, parts, rand.New(rand.NewSource(r.seed))) })
	cut := partition.Edgecut(g, a)
	prob := core.Problem{A: ahat, Features: r.ds.Features, Labels: r.ds.Labels}
	var relabeled core.Problem
	var layout partition.Contig1D
	relabel := p.timed("core.PartitionProblem", "core", func() {
		relabeled, layout, _, err = core.PartitionProblem(prob, a)
	})
	out := []metric{
		measured("partition.ldg_s", "s", ldg),
		measured("partition.max_cut", "count", float64(cut.MaxCut)),
		measured("partition.total_cut", "count", float64(cut.TotalCut)),
	}
	if err != nil {
		return append(out, unmeasured("core.relabel_s", "s", err.Error()), unmeasured("sparse.halo_plan_s", "s", err.Error()))
	}
	offsets := partition.Offsets1D(layout)
	n := relabeled.A.Rows
	blocks := make([]*sparse.CSR, parts)
	for rk := range blocks {
		blocks[rk] = relabeled.A.ExtractBlock(offsets[rk], offsets[rk+1], 0, n)
	}
	halo := p.timed("sparse.BuildHaloPlan", "sparse", func() {
		for rk, b := range blocks {
			sparse.BuildHaloPlan(b, offsets, rk)
		}
	})
	return append(out, measured("core.relabel_s", "s", relabel), measured("sparse.halo_plan_s", "s", halo))
}
