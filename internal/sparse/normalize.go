package sparse

import (
	"fmt"
	"math"
	"sort"
)

// NormalizeSymmetric returns D^{-1/2} (A + I) D^{-1/2}, the symmetric
// normalization with self-loops from Kipf & Welling that the paper uses as
// its "modified adjacency matrix" (§III-B). D is the diagonal degree matrix
// of A + I. Vertices that remain isolated after adding the self-loop cannot
// occur (the self-loop guarantees degree ≥ 1).
//
// A + I is built in one pass that merges (i, i) into each row's sorted
// columns: an existing diagonal entry aᵢᵢ becomes aᵢᵢ + 1, and a missing
// one is inserted as 1. The output is allocated once at nnz(A) + n.
func NormalizeSymmetric(a *CSR) *CSR {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("sparse: NormalizeSymmetric needs a square matrix, got %dx%d", a.Rows, a.Cols))
	}
	n := a.Rows
	ai := &CSR{
		Rows:   n,
		Cols:   n,
		RowPtr: make([]int, n+1),
		ColIdx: make([]int, 0, a.NNZ()+n),
		Val:    make([]float64, 0, a.NNZ()+n),
	}
	for i := 0; i < n; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		d := lo + sort.SearchInts(a.ColIdx[lo:hi], i)
		ai.ColIdx = append(ai.ColIdx, a.ColIdx[lo:d]...)
		ai.Val = append(ai.Val, a.Val[lo:d]...)
		ai.ColIdx = append(ai.ColIdx, i)
		if d < hi && a.ColIdx[d] == i {
			ai.Val = append(ai.Val, a.Val[d]+1)
			d++
		} else {
			ai.Val = append(ai.Val, 1)
		}
		ai.ColIdx = append(ai.ColIdx, a.ColIdx[d:hi]...)
		ai.Val = append(ai.Val, a.Val[d:hi]...)
		ai.RowPtr[i+1] = len(ai.ColIdx)
	}
	// Modified degrees: row sums of A + I.
	dinv := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for k := ai.RowPtr[i]; k < ai.RowPtr[i+1]; k++ {
			s += ai.Val[k]
		}
		dinv[i] = 1 / math.Sqrt(s)
	}
	for i := 0; i < n; i++ {
		for k := ai.RowPtr[i]; k < ai.RowPtr[i+1]; k++ {
			ai.Val[k] *= dinv[i] * dinv[ai.ColIdx[k]]
		}
	}
	return ai
}

// RowStochastic returns D^{-1} A: each row scaled to sum to one. Rows with
// no nonzeros are left as zero rows. This is the alternative "mean
// aggregator" normalization common in GraphSAGE-style models.
func RowStochastic(a *CSR) *CSR {
	out := a.Clone()
	for i := 0; i < out.Rows; i++ {
		var s float64
		for k := out.RowPtr[i]; k < out.RowPtr[i+1]; k++ {
			s += out.Val[k]
		}
		if s == 0 {
			continue
		}
		inv := 1 / s
		for k := out.RowPtr[i]; k < out.RowPtr[i+1]; k++ {
			out.Val[k] *= inv
		}
	}
	return out
}
