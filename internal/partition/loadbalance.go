package partition

import "repro/internal/sparse"

// LoadBalance quantifies the §I claim that the 2D/3D algorithms "address
// load balance through a combination of random vertex permutations and the
// implicit partitioning of the adjacencies of high-degree vertices".
type LoadBalance struct {
	// MaxNNZ and MinNNZ are the extreme per-block nonzero counts.
	MaxNNZ, MinNNZ int
	// Imbalance is MaxNNZ divided by the ideal nnz/P.
	Imbalance float64
}

// BlockNNZBalance measures per-block nonzero balance of a 2D grid
// partition of a.
func BlockNNZBalance(a *sparse.CSR, grid Grid2D) LoadBalance {
	rows := NewBlock1D(a.Rows, grid.Pr)
	cols := NewBlock1D(a.Cols, grid.Pc)
	lb := LoadBalance{MinNNZ: a.NNZ() + 1}
	for i := 0; i < grid.Pr; i++ {
		for j := 0; j < grid.Pc; j++ {
			blk := a.ExtractBlock(rows.Lo(i), rows.Hi(i), cols.Lo(j), cols.Hi(j))
			if blk.NNZ() > lb.MaxNNZ {
				lb.MaxNNZ = blk.NNZ()
			}
			if blk.NNZ() < lb.MinNNZ {
				lb.MinNNZ = blk.NNZ()
			}
		}
	}
	ideal := float64(a.NNZ()) / float64(grid.Size())
	if ideal > 0 {
		lb.Imbalance = float64(lb.MaxNNZ) / ideal
	}
	return lb
}
