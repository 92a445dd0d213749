// Package sparse implements the compressed sparse row (CSR) matrices and
// sparse-times-dense kernels (SpMM) at the heart of GNN training.
//
// The paper's key computation is multiplying the (normalized) adjacency
// matrix A — stored sparse — by tall-skinny dense activation matrices. This
// package provides those kernels plus the block-extraction operations needed
// to lay a sparse matrix out on 1D, 2D, and 3D process grids, and the
// symmetric normalization D^{-1/2}(A+I)D^{-1/2} from Kipf & Welling.
package sparse

import (
	"fmt"
	"sort"

	"repro/internal/dense"
)

// Coord is a single nonzero in coordinate (COO) format.
type Coord struct {
	Row, Col int
	Val      float64
}

// CSROf is a sparse matrix in compressed sparse row format, generic over
// the value type so the float32 mixed-precision path can reuse every kernel
// and converter.
//
// RowPtr has length Rows+1; the column indices and values of row i occupy
// ColIdx[RowPtr[i]:RowPtr[i+1]] and Val[RowPtr[i]:RowPtr[i+1]]. Column
// indices are strictly increasing within each row.
type CSROf[T dense.Elem] struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []T
}

// CSR is the float64 CSR matrix used by the default training path.
type CSR = CSROf[float64]

// ConvertCSR returns a copy of a with values rounded through T — the
// boundary where the mixed-precision path downcasts the adjacency matrix
// once at setup. Structure (RowPtr, ColIdx) is copied, not shared.
func ConvertCSR[T dense.Elem](a *CSR) *CSROf[T] {
	out := &CSROf[T]{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: append([]int(nil), a.RowPtr...),
		ColIdx: append([]int(nil), a.ColIdx...),
		Val:    make([]T, len(a.Val)),
	}
	for i, v := range a.Val {
		out.Val[i] = T(v)
	}
	return out
}

// NewCSR builds a CSR matrix from coordinate entries. Duplicate (row, col)
// entries are summed in input order: entries e1, e2, e3 at one coordinate
// store (e1.Val+e2.Val)+e3.Val. Entries out of range cause a panic.
//
// Construction is O(nnz + rows + cols) with a fixed number of allocations:
// two stable counting sorts, first by column and then by row, put the
// entries in row-major order with duplicates adjacent and still in input
// order, and a final pass sums the duplicates into exact-size arrays.
func NewCSR(rows, cols int, entries []Coord) *CSR {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: negative dimensions %dx%d", rows, cols))
	}
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			panic(fmt.Sprintf("sparse: entry (%d,%d) out of range for %dx%d", e.Row, e.Col, rows, cols))
		}
	}
	nnz := len(entries)
	// byCol and order are the two passes' permutations of entry indices;
	// next is the counting sorts' bucket cursor, sized for either pass.
	idx := make([]int, 2*nnz)
	byCol, order := idx[:nnz], idx[nnz:]
	next := make([]int, max(rows, cols)+1)

	for _, e := range entries {
		next[e.Col+1]++
	}
	for j := 0; j < cols; j++ {
		next[j+1] += next[j]
	}
	for k, e := range entries {
		byCol[next[e.Col]] = k
		next[e.Col]++
	}

	clear(next)
	for _, e := range entries {
		next[e.Row+1]++
	}
	for i := 0; i < rows; i++ {
		next[i+1] += next[i]
	}
	for _, k := range byCol {
		r := entries[k].Row
		order[next[r]] = k
		next[r]++
	}

	// Sorted duplicates are adjacent: count the distinct coordinates per
	// row, then fill exact-size arrays, summing each run in input order.
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	prev := Coord{Row: -1}
	for _, k := range order {
		if e := entries[k]; e.Row != prev.Row || e.Col != prev.Col {
			m.RowPtr[e.Row+1]++
			prev = e
		}
	}
	for i := 0; i < rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	m.ColIdx = make([]int, m.RowPtr[rows])
	m.Val = make([]float64, m.RowPtr[rows])
	out, prev := -1, Coord{Row: -1}
	for _, k := range order {
		e := entries[k]
		if e.Row == prev.Row && e.Col == prev.Col {
			m.Val[out] += e.Val
			continue
		}
		out++
		m.ColIdx[out] = e.Col
		m.Val[out] = e.Val
		prev = e
	}
	return m
}

// NNZ returns the number of stored nonzeros.
func (m *CSROf[T]) NNZ() int { return len(m.Val) }

// At returns element (i, j) with a binary search within row i.
func (m *CSROf[T]) At(i, j int) T {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range for %dx%d", i, j, m.Rows, m.Cols))
	}
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	k := lo + sort.SearchInts(m.ColIdx[lo:hi], j)
	if k < hi && m.ColIdx[k] == j {
		return m.Val[k]
	}
	return 0
}

// Entries returns all nonzeros in row-major order as coordinate entries
// (values widened to float64).
func (m *CSROf[T]) Entries() []Coord {
	out := make([]Coord, 0, m.NNZ())
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			out = append(out, Coord{Row: i, Col: m.ColIdx[k], Val: float64(m.Val[k])})
		}
	}
	return out
}

// Clone returns a deep copy of m.
func (m *CSROf[T]) Clone() *CSROf[T] {
	out := &CSROf[T]{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: append([]int(nil), m.RowPtr...),
		ColIdx: append([]int(nil), m.ColIdx...),
		Val:    append([]T(nil), m.Val...),
	}
	return out
}

// Transpose returns mᵀ in CSR format using a counting pass (the classic
// CSR→CSC conversion, reinterpreted).
func (m *CSROf[T]) Transpose() *CSROf[T] {
	out := &CSROf[T]{
		Rows:   m.Cols,
		Cols:   m.Rows,
		RowPtr: make([]int, m.Cols+1),
		ColIdx: make([]int, m.NNZ()),
		Val:    make([]T, m.NNZ()),
	}
	for _, c := range m.ColIdx {
		out.RowPtr[c+1]++
	}
	for i := 0; i < m.Cols; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	next := append([]int(nil), out.RowPtr[:m.Cols]...)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			c := m.ColIdx[k]
			pos := next[c]
			next[c]++
			out.ColIdx[pos] = i
			out.Val[pos] = m.Val[k]
		}
	}
	return out
}

// ExtractBlock returns the sub-matrix with rows [r0, r1) and columns
// [c0, c1) re-indexed to local coordinates, as used when distributing a
// matrix onto a process grid. A counting pass sizes the block first, so its
// arrays are allocated once at exactly their length.
func (m *CSROf[T]) ExtractBlock(r0, r1, c0, c1 int) *CSROf[T] {
	if r0 < 0 || r1 > m.Rows || c0 < 0 || c1 > m.Cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("sparse: ExtractBlock [%d:%d, %d:%d] out of range for %dx%d", r0, r1, c0, c1, m.Rows, m.Cols))
	}
	out := &CSROf[T]{Rows: r1 - r0, Cols: c1 - c0, RowPtr: make([]int, r1-r0+1)}
	// span returns the positions of row i's entries in columns [c0, c1).
	span := func(i int) (start, end int) {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		cols := m.ColIdx[lo:hi]
		return lo + sort.SearchInts(cols, c0), lo + sort.SearchInts(cols, c1)
	}
	for i := r0; i < r1; i++ {
		start, end := span(i)
		out.RowPtr[i-r0+1] = out.RowPtr[i-r0] + end - start
	}
	nnz := out.RowPtr[r1-r0]
	out.ColIdx = make([]int, nnz)
	out.Val = make([]T, nnz)
	for i := r0; i < r1; i++ {
		start, end := span(i)
		lo := out.RowPtr[i-r0]
		for k, c := range m.ColIdx[start:end] {
			out.ColIdx[lo+k] = c - c0
		}
		copy(out.Val[lo:], m.Val[start:end])
	}
	return out
}

// Scale multiplies all values by alpha in place.
func (m *CSROf[T]) Scale(alpha T) {
	for i := range m.Val {
		m.Val[i] *= alpha
	}
}

// ToDense materializes m as a dense matrix (test/debug helper; avoid on
// large inputs).
func (m *CSROf[T]) ToDense() *dense.Of[T] {
	out := dense.NewOf[T](m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			out.Set(i, m.ColIdx[k], m.Val[k])
		}
	}
	return out
}

// RowNNZ returns the number of nonzeros in row i.
func (m *CSROf[T]) RowNNZ(i int) int { return m.RowPtr[i+1] - m.RowPtr[i] }

// NonEmptyRows returns how many rows have at least one nonzero. The paper's
// hypersparsity discussion (§IV-A-3, citing Buluç & Gilbert) keys on this:
// 2D-partitioned submatrices of sparse graphs have mostly empty rows.
func (m *CSROf[T]) NonEmptyRows() int {
	n := 0
	for i := 0; i < m.Rows; i++ {
		if m.RowNNZ(i) > 0 {
			n++
		}
	}
	return n
}

// AvgDegree returns NNZ/Rows, the average number of nonzeros per row
// (written d in the paper).
func (m *CSROf[T]) AvgDegree() float64 {
	if m.Rows == 0 {
		return 0
	}
	return float64(m.NNZ()) / float64(m.Rows)
}

// Equal reports whether a and b have identical shape and nonzero structure
// with values equal within tol.
func Equal[T dense.Elem](a, b *CSROf[T], tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != b.ColIdx[k] {
			return false
		}
		d := float64(a.Val[k]) - float64(b.Val[k])
		if d < -tol || d > tol {
			return false
		}
	}
	return true
}
