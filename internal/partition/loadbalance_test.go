package partition

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestBlockNNZBalanceCoversAllNNZ(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := graph.ErdosRenyi(100, 8, rng).Adjacency()
	lb := BlockNNZBalance(a, NewGrid2D(4, 4))
	if lb.MaxNNZ < a.NNZ()/16 {
		t.Fatalf("max block nnz %d below average", lb.MaxNNZ)
	}
	if lb.MinNNZ > lb.MaxNNZ {
		t.Fatalf("min %d > max %d", lb.MinNNZ, lb.MaxNNZ)
	}
	if lb.Imbalance < 1 {
		t.Fatalf("imbalance %v < 1", lb.Imbalance)
	}
}

// TestPermutationImprovesBalance reproduces the §I load-balance claim:
// random vertex permutation plus 2D blocks evens out nnz per process on a
// skewed power-law graph.
func TestPermutationImprovesBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// R-MAT without noise concentrates edges in the low-index corner,
	// giving badly skewed blocks in natural order.
	cfg := graph.RMATConfig{A: 0.57, B: 0.19, C: 0.19, Noise: 0}
	g := graph.RMAT(11, 16, cfg, rng)
	grid := NewGrid2D(4, 4)
	before := BlockNNZBalance(g.Adjacency(), grid)
	pg, _ := g.PermuteVertices(rng)
	after := BlockNNZBalance(pg.Adjacency(), grid)
	if after.Imbalance >= before.Imbalance {
		t.Fatalf("permutation should improve balance: before %v, after %v",
			before.Imbalance, after.Imbalance)
	}
	if after.Imbalance > 1.8 {
		t.Fatalf("post-permutation imbalance %v still high", after.Imbalance)
	}
}

func TestBlockNNZBalanceEmpty(t *testing.T) {
	lb := BlockNNZBalance(graph.New(8).Adjacency(), NewGrid2D(2, 2))
	if lb.Imbalance != 0 || lb.MaxNNZ != 0 {
		t.Fatalf("empty balance = %+v", lb)
	}
}
