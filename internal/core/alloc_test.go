package core

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/parallel"
)

// This file asserts the PR-4 tentpole: after a warm-up epoch has populated
// the workspaces, kernel plans, and the fabric's payload pool, one engine
// epoch of every trainer performs zero heap allocations.
//
// The tests run under the serial compute backend: the parallel backend's
// pool dispatch heap-allocates its task closures (a bounded handful per
// kernel call), which is precisely what the parallel.Inline fast paths
// avoid on the serial path. GOMAXPROCS is pinned to 1 by AllocsPerRun
// itself; the simulated ranks still run as goroutines and exercise the
// full collective choreography.

// rankRunner is the runRanks surface the distributed trainers share.
type rankRunner interface {
	runRanks(p Problem, body func(ops layerOps, cfg nn.Config, prob Problem) error) error
}

// steadyStateAllocs drives warmup+measured epochs across all ranks in
// lockstep and returns the average allocations of one full epoch (epoch +
// endEpoch on every rank). Each runner runs on its own goroutine: one
// in-process trainer drives every rank, while over an external fabric
// there is one trainer per rank.
func steadyStateAllocs(t *testing.T, runners []rankRunner, p Problem, ranks int) float64 {
	t.Helper()
	const warmup = 3
	const runs = 5
	total := warmup + (runs + 1) // AllocsPerRun invokes its func runs+1 times
	start := make(chan struct{}, ranks)
	done := make(chan struct{}, ranks)
	errCh := make(chan error, len(runners))
	for _, tr := range runners {
		go func() {
			errCh <- tr.runRanks(p, func(ops layerOps, cfg nn.Config, prob Problem) error {
				eng := newEngine(ops, cfg, prob)
				weights := nn.InitWeights(cfg)
				for i := 0; i < total; i++ {
					<-start
					eng.epoch(weights)
					ops.endEpoch()
					done <- struct{}{}
				}
				return nil
			})
		}()
	}
	oneEpoch := func() {
		for i := 0; i < ranks; i++ {
			start <- struct{}{}
		}
		for i := 0; i < ranks; i++ {
			<-done
		}
	}
	for i := 0; i < warmup; i++ {
		oneEpoch()
	}
	avg := testing.AllocsPerRun(runs, oneEpoch)
	for range runners {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	return avg
}

// TestSteadyStateAllocsSerial: the serial trainer's epoch must allocate
// nothing once the workspace and transpose plan are warm — for every kernel
// configuration: the default fused f64 path, the float32 mixed-precision
// path, and the reference scalar kernels.
func TestSteadyStateAllocsSerial(t *testing.T) {
	release := parallel.AcquireBackend(parallel.BackendSerial)
	defer release()
	cases := []struct {
		name string
		o    KernelOptions
	}{
		{"default", KernelOptions{}},
		{"f32", KernelOptions{Precision: PrecisionF32}},
		{"reference", KernelOptions{Reference: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := testProblem(t, 256, 16, 16, 8, 1, 71)
			cfg := p.Config.WithDefaults()
			var ops layerOps
			if tc.o.precision() == PrecisionF32 {
				ops = newMixedOps(cfg, p)
			} else {
				sops := newSerialOps(cfg, p.A, p.Features, p.Labels, p.TrainMask, p.lossNormalizer())
				sops.ref = tc.o.Reference
				ops = sops
			}
			eng := newEngine(ops, cfg, p)
			weights := nn.InitWeights(cfg)
			for i := 0; i < 2; i++ {
				eng.epoch(weights)
				ops.endEpoch()
			}
			if avg := testing.AllocsPerRun(5, func() {
				eng.epoch(weights)
				ops.endEpoch()
			}); avg != 0 {
				t.Fatalf("%s steady-state epoch allocates %.1f times, want 0", tc.name, avg)
			}
		})
	}
}

// TestSteadyStateAllocsDistributed: every distributed trainer's epoch —
// collectives, halo exchanges, SUMMA broadcasts, transpose exchange and
// all — must allocate nothing in steady state across all simulated ranks.
func TestSteadyStateAllocsDistributed(t *testing.T) {
	release := parallel.AcquireBackend(parallel.BackendSerial)
	defer release()
	cases := []struct {
		name  string
		tr    rankRunner
		ranks int
	}{
		{"1d", NewOneD(4, testMach), 4},
		{"1d-halo", func() rankRunner { tr := NewOneD(4, testMach); tr.Halo = true; return tr }(), 4},
		{"1.5d", NewOneFiveD(4, 2, testMach), 4},
		{"1.5d-halo", func() rankRunner { tr := NewOneFiveD(4, 2, testMach); tr.Halo = true; return tr }(), 4},
		{"2d", NewTwoD(4, testMach), 4},
		{"3d", NewThreeD(8, testMach), 8},
		// Overlap mode must be equally allocation-free: the double buffers
		// come from the workspace/payload arenas and Request objects are
		// pooled and recycled by EpochDone.
		{"1d-overlap", func() rankRunner { tr := NewOneD(4, testMach); tr.Overlap = true; return tr }(), 4},
		{"1d-halo-overlap", func() rankRunner {
			tr := NewOneD(4, testMach)
			tr.Halo, tr.Overlap = true, true
			return tr
		}(), 4},
		{"1.5d-overlap", func() rankRunner { tr := NewOneFiveD(4, 2, testMach); tr.Overlap = true; return tr }(), 4},
		{"1.5d-halo-overlap", func() rankRunner {
			tr := NewOneFiveD(4, 2, testMach)
			tr.Halo, tr.Overlap = true, true
			return tr
		}(), 4},
		{"2d-overlap", func() rankRunner { tr := NewTwoD(4, testMach); tr.Overlap = true; return tr }(), 4},
		{"3d-overlap", func() rankRunner { tr := NewThreeD(8, testMach); tr.Overlap = true; return tr }(), 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := testProblem(t, 256, 16, 16, 8, 1, 72)
			if avg := steadyStateAllocs(t, []rankRunner{tc.tr}, p, tc.ranks); avg != 0 {
				t.Fatalf("%s steady-state epoch allocates %.1f times across %d ranks, want 0",
					tc.name, avg, tc.ranks)
			}
		})
	}
}

// TestSteadyStateAllocsTCP: over the loopback TCP fabric, with one trainer
// per rank as in a multi-process run, the steady-state epoch must also
// allocate nothing — frames decode into the transport's receive arena,
// recycled at every EpochDone, and the blocked Recv/Barrier path reuses
// one watchdog timer. The count covers every goroutine in the process:
// the ranks and the connection readers.
func TestSteadyStateAllocsTCP(t *testing.T) {
	release := parallel.AcquireBackend(parallel.BackendSerial)
	defer release()
	cases := []struct {
		name  string
		newTr func() Trainer
		ranks int
	}{
		{"2d", func() Trainer { return NewTwoD(4, testMach) }, 4},
		{"1d-halo", func() Trainer { tr := NewOneD(4, testMach); tr.Halo = true; return tr }, 4},
		{"3d-overlap", func() Trainer { tr := NewThreeD(8, testMach); tr.Overlap = true; return tr }, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			comms, err := comm.LocalTCPComms(tc.ranks, comm.CostParams{Alpha: testMach.Alpha, Beta: testMach.Beta})
			if err != nil {
				t.Fatalf("LocalTCPComms: %v", err)
			}
			defer func() {
				for _, c := range comms {
					c.Transport().Close()
				}
			}()
			runners := make([]rankRunner, tc.ranks)
			for r := range runners {
				tr := tc.newTr()
				if err := SetTransportComm(tr, comms[r]); err != nil {
					t.Fatal(err)
				}
				runners[r] = tr.(rankRunner)
			}
			p := testProblem(t, 256, 16, 16, 8, 1, 72)
			if avg := steadyStateAllocs(t, runners, p, tc.ranks); avg != 0 {
				t.Fatalf("%s steady-state epoch over TCP allocates %.1f times across %d ranks, want 0",
					tc.name, avg, tc.ranks)
			}
		})
	}
}
