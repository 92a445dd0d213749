package sparse

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/dense"
)

// The fuzz layer checks the CSR kernel invariants on arbitrary inputs.
// Nonzero and dense values are decoded to small integers, so every
// reference computation is exact and comparisons are bitwise — a
// mismatch is a real structural bug, never float noise. The construction
// targets also decode each input a second time with non-integer values of
// mixed magnitude (cooFracFromBytes), where summation order shows in the
// bits, and compare against input-order accumulation and refNewCSR.
//
// Run as fuzzers with
//
//	go test ./internal/sparse -run '^$' -fuzz FuzzCSRFromCOO -fuzztime 10s
//
// (one -fuzz target per invocation); under plain go test each target
// replays its seed corpus as a regular test.

// cooFromBytes decodes a byte stream into coordinate entries over a
// rows x cols matrix, three bytes per entry, values in [-7, 7].
func cooFromBytes(data []byte, rows, cols int) []Coord {
	var out []Coord
	for i := 0; i+2 < len(data); i += 3 {
		out = append(out, Coord{
			Row: int(data[i]) % rows,
			Col: int(data[i+1]) % cols,
			Val: float64(int(data[i+2]%15) - 7),
		})
	}
	return out
}

// cooFracFromBytes decodes the same stream as cooFromBytes but with
// non-integer values spread over eight binary orders of magnitude, so that
// summing duplicates in a different order changes the result's bits.
func cooFracFromBytes(data []byte, rows, cols int) []Coord {
	out := cooFromBytes(data, rows, cols)
	for k := range out {
		b := data[3*k+2]
		out[k].Val = math.Ldexp(float64(int(b)-127)/10, int(b%8)*4)
	}
	return out
}

// dim clamps a fuzzed byte to a usable dimension in [1, 24].
func dim(b byte) int { return 1 + int(b)%24 }

// refNewCSR is NewCSR's former construction, kept as the bit-exactness
// oracle: an unstable comparison sort into row-major order followed by an
// in-place duplicate sum. The sort leaves the order of equal coordinates
// unspecified, so it agrees with NewCSR bitwise only when no coordinate
// repeats three or more times (two addends commute exactly).
func refNewCSR(rows, cols int, entries []Coord) *CSR {
	sorted := append([]Coord(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	dedup := sorted[:0]
	for _, e := range sorted {
		if n := len(dedup); n > 0 && dedup[n-1].Row == e.Row && dedup[n-1].Col == e.Col {
			dedup[n-1].Val += e.Val
		} else {
			dedup = append(dedup, e)
		}
	}
	m := &CSR{
		Rows:   rows,
		Cols:   cols,
		RowPtr: make([]int, rows+1),
		ColIdx: make([]int, len(dedup)),
		Val:    make([]float64, len(dedup)),
	}
	for i, e := range dedup {
		m.RowPtr[e.Row+1]++
		m.ColIdx[i] = e.Col
		m.Val[i] = e.Val
	}
	for i := 0; i < rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}

// refNormalizeSymmetric is NormalizeSymmetric's former formulation: append
// a unit self-loop per row to A's entries, rebuild through refNewCSR
// (which sums the diagonal pair), then scale by the inverse square roots
// of the row sums.
func refNormalizeSymmetric(a *CSR) *CSR {
	entries := a.Entries()
	for i := 0; i < a.Rows; i++ {
		entries = append(entries, Coord{Row: i, Col: i, Val: 1})
	}
	ai := refNewCSR(a.Rows, a.Cols, entries)
	dinv := make([]float64, ai.Rows)
	for i := range dinv {
		var s float64
		for k := ai.RowPtr[i]; k < ai.RowPtr[i+1]; k++ {
			s += ai.Val[k]
		}
		dinv[i] = 1 / math.Sqrt(s)
	}
	for i := 0; i < ai.Rows; i++ {
		for k := ai.RowPtr[i]; k < ai.RowPtr[i+1]; k++ {
			ai.Val[k] *= dinv[i] * dinv[ai.ColIdx[k]]
		}
	}
	return ai
}

// equalBits reports whether a and b have identical shape, structure and
// value bits (so NaNs compare by payload and -0 differs from +0).
func equalBits(a, b *CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || !slices.Equal(a.RowPtr, b.RowPtr) || !slices.Equal(a.ColIdx, b.ColIdx) {
		return false
	}
	return slices.EqualFunc(a.Val, b.Val, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// checkInputOrderSums asserts that m stores, for every coordinate of
// entries, the left-to-right sum of that coordinate's values in input
// order, bit for bit, and that m agrees with refNewCSR bitwise whenever no
// coordinate repeats three or more times.
func checkInputOrderSums(t *testing.T, m *CSR, entries []Coord) {
	t.Helper()
	type key struct{ r, c int }
	sums := make(map[key]float64)
	copies := make(map[key]int)
	for _, e := range entries {
		k := key{e.Row, e.Col}
		if copies[k] == 0 {
			sums[k] = e.Val
		} else {
			sums[k] += e.Val
		}
		copies[k]++
	}
	if m.NNZ() != len(sums) {
		t.Fatalf("nnz %d, want %d distinct coordinates", m.NNZ(), len(sums))
	}
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			want, ok := sums[key{i, m.ColIdx[k]}]
			if !ok || math.Float64bits(m.Val[k]) != math.Float64bits(want) {
				t.Fatalf("(%d,%d) = %v, want input-order sum %v", i, m.ColIdx[k], m.Val[k], want)
			}
		}
	}
	for _, c := range copies {
		if c >= 3 {
			return
		}
	}
	if ref := refNewCSR(m.Rows, m.Cols, entries); !equalBits(m, ref) {
		t.Fatal("NewCSR differs from the sort-based reference construction")
	}
}

// checkExtractBlock asserts that m.ExtractBlock(r0, r1, c0, c1) equals the
// dense sub-matrix of m, is a valid CSR, and has exact-size arrays.
func checkExtractBlock(t *testing.T, m *CSR, r0, r1, c0, c1 int) {
	t.Helper()
	blk := m.ExtractBlock(r0, r1, c0, c1)
	if blk.Rows != r1-r0 || blk.Cols != c1-c0 || len(blk.RowPtr) != blk.Rows+1 || blk.RowPtr[blk.Rows] != blk.NNZ() {
		t.Fatalf("block [%d:%d, %d:%d] has bad shape", r0, r1, c0, c1)
	}
	if cap(blk.ColIdx) != len(blk.ColIdx) || cap(blk.Val) != len(blk.Val) || len(blk.ColIdx) != len(blk.Val) {
		t.Fatalf("block [%d:%d, %d:%d] arrays not exact-size: ColIdx %d/%d, Val %d/%d",
			r0, r1, c0, c1, len(blk.ColIdx), cap(blk.ColIdx), len(blk.Val), cap(blk.Val))
	}
	full, sub := m.ToDense(), blk.ToDense()
	for i := r0; i < r1; i++ {
		for j := c0; j < c1; j++ {
			if got, want := sub.At(i-r0, j-c0), full.At(i, j); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("block [%d:%d, %d:%d] at (%d,%d) = %v, want %v", r0, r1, c0, c1, i, j, got, want)
			}
		}
	}
	for i := 0; i < blk.Rows; i++ {
		for k := blk.RowPtr[i]; k < blk.RowPtr[i+1]; k++ {
			if k > blk.RowPtr[i] && blk.ColIdx[k] <= blk.ColIdx[k-1] {
				t.Fatalf("block [%d:%d, %d:%d] row %d columns not strictly increasing", r0, r1, c0, c1, i)
			}
		}
	}
}

// FuzzCSRFromCOO checks the COO→CSR construction invariants: valid,
// strictly sorted CSR structure; exact duplicate summation against a
// dense reference; Entries/NewCSR and Transpose/Transpose round-trips;
// full-range ExtractBlock identity and a fuzzed sub-range against the
// dense reference. With non-integer values it checks input-order
// duplicate summation bitwise and agreement with refNewCSR.
func FuzzCSRFromCOO(f *testing.F) {
	f.Add([]byte{}, byte(1), byte(1))
	f.Add([]byte{0, 0, 1, 0, 0, 2, 3, 4, 5}, byte(4), byte(6))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, byte(5), byte(5))
	f.Add([]byte{255, 255, 255, 0, 128, 64, 9, 9, 9, 9, 9, 9}, byte(24), byte(24))
	f.Fuzz(func(t *testing.T, data []byte, rb, cb byte) {
		rows, cols := dim(rb), dim(cb)
		entries := cooFromBytes(data, rows, cols)
		m := NewCSR(rows, cols, entries)

		// Structural invariants.
		if len(m.RowPtr) != rows+1 || m.RowPtr[0] != 0 || m.RowPtr[rows] != m.NNZ() {
			t.Fatalf("bad RowPtr frame: len %d, first %d, last %d, nnz %d",
				len(m.RowPtr), m.RowPtr[0], m.RowPtr[rows], m.NNZ())
		}
		for i := 0; i < rows; i++ {
			if m.RowPtr[i] > m.RowPtr[i+1] {
				t.Fatalf("RowPtr decreases at row %d", i)
			}
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				if m.ColIdx[k] < 0 || m.ColIdx[k] >= cols {
					t.Fatalf("column %d out of range at row %d", m.ColIdx[k], i)
				}
				if k > m.RowPtr[i] && m.ColIdx[k] <= m.ColIdx[k-1] {
					t.Fatalf("columns not strictly increasing in row %d", i)
				}
			}
		}

		// Exact duplicate summation against a dense reference (integer
		// values, so addition order cannot matter).
		ref := dense.New(rows, cols)
		for _, e := range entries {
			ref.Set(e.Row, e.Col, ref.At(e.Row, e.Col)+e.Val)
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if got, want := m.At(i, j), ref.At(i, j); got != want {
					t.Fatalf("At(%d,%d) = %g, want %g", i, j, got, want)
				}
			}
		}

		// NewCSR(Entries()) is the identity. Note stored zeros (duplicates
		// canceling to 0) survive both directions.
		if rt := NewCSR(rows, cols, m.Entries()); !Equal(m, rt, 0) {
			t.Fatal("Entries→NewCSR round-trip differs")
		}
		// Transpose is an involution.
		if tt := m.Transpose().Transpose(); !Equal(m, tt, 0) {
			t.Fatal("double transpose differs")
		}
		// Extracting the full range is the identity.
		if blk := m.ExtractBlock(0, rows, 0, cols); !Equal(m, blk, 0) {
			t.Fatal("full-range ExtractBlock differs")
		}
		// A sub-range derived from the input, possibly empty.
		r0 := len(data) % (rows + 1)
		r1 := r0 + int(rb/24)%(rows-r0+1)
		c0 := len(data) / 3 % (cols + 1)
		c1 := c0 + int(cb/24)%(cols-c0+1)
		checkExtractBlock(t, m, r0, r1, c0, c1)

		checkInputOrderSums(t, m, entries)
		frac := cooFracFromBytes(data, rows, cols)
		fm := NewCSR(rows, cols, frac)
		checkInputOrderSums(t, fm, frac)
		checkExtractBlock(t, fm, r0, r1, c0, c1)
	})
}

// FuzzNormalizeSymmetric checks that the one-pass self-loop merge is
// bit-identical to the former Entries + self-loops + refNewCSR
// formulation on arbitrary square matrices, including ones with stored
// diagonal entries, negative and non-integer values.
func FuzzNormalizeSymmetric(f *testing.F) {
	f.Add([]byte{}, byte(1))
	f.Add([]byte{0, 1, 8, 1, 0, 8, 1, 2, 8, 2, 1, 8}, byte(3))
	f.Add([]byte{0, 0, 9, 1, 1, 200, 2, 2, 7, 0, 2, 131}, byte(3))
	f.Add([]byte{3, 3, 10, 3, 3, 250, 3, 3, 17, 0, 3, 40, 3, 0, 40}, byte(6))
	// Row 4 holds three off-diagonal values of mixed magnitude plus the
	// self-loop, so its degree depends on summation order.
	f.Add([]byte{49, 48, 254, 49, 50, 35, 49, 56, 35}, byte(52))
	f.Fuzz(func(t *testing.T, data []byte, nb byte) {
		n := dim(nb)
		for _, entries := range [][]Coord{cooFromBytes(data, n, n), cooFracFromBytes(data, n, n)} {
			a := NewCSR(n, n, entries)
			got := NormalizeSymmetric(a)
			if want := refNormalizeSymmetric(a); !equalBits(got, want) {
				t.Fatalf("NormalizeSymmetric differs from the reference formulation on %dx%d", n, n)
			}
			if got.NNZ() > a.NNZ()+n || got.NNZ() < a.NNZ() {
				t.Fatalf("nnz %d outside [nnz(A), nnz(A)+n] = [%d, %d]", got.NNZ(), a.NNZ(), a.NNZ()+n)
			}
		}
	})
}

// FuzzTransposePlan checks that a TransposePlan's gather product is
// bit-identical to the search-based SpMMT kernel and invariant under
// the chunk count, and that SpMMTAdd accumulates exactly.
func FuzzTransposePlan(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 1, 2}, byte(3), byte(4), byte(2), byte(3))
	f.Add([]byte{5, 5, 5, 1, 2, 3, 9, 8, 7}, byte(8), byte(8), byte(3), byte(1))
	f.Add([]byte{}, byte(1), byte(6), byte(1), byte(7))
	f.Fuzz(func(t *testing.T, data []byte, rb, cb, fb, chunkb byte) {
		rows, cols := dim(rb), dim(cb)
		feats := 1 + int(fb)%6
		chunks := 1 + int(chunkb)%8
		a := NewCSR(rows, cols, cooFromBytes(data, rows, cols))
		x := dense.New(rows, feats)
		for i := range x.Data {
			b := byte(0)
			if len(data) > 0 {
				b = data[i%len(data)]
			}
			x.Data[i] = float64(int(b%9) - 4)
		}

		want := dense.New(cols, feats)
		SpMMT(want, a, x)

		plan := NewTransposePlanChunks(a, chunks)
		if plan.Rows() != rows || plan.Cols() != cols {
			t.Fatalf("plan dims %dx%d, want %dx%d", plan.Rows(), plan.Cols(), rows, cols)
		}
		got := dense.New(cols, feats)
		plan.SpMMT(got, x)
		if !dense.EqualWithin(got, want, 0) {
			t.Fatalf("plan SpMMT differs from kernel, max |Δ| = %g", dense.MaxAbsDiff(got, want))
		}
		// The chunk count balances work; it must never change the result.
		single := NewTransposePlanChunks(a, 1)
		got2 := dense.New(cols, feats)
		single.SpMMT(got2, x)
		if !dense.EqualWithin(got2, got, 0) {
			t.Fatal("plan result depends on chunk count")
		}
		// SpMMTAdd on top of a prior product doubles it exactly.
		plan.SpMMTAdd(got, x)
		for i := range got.Data {
			if got.Data[i] != 2*want.Data[i] {
				t.Fatalf("SpMMTAdd accumulation wrong at %d: %g, want %g",
					i, got.Data[i], 2*want.Data[i])
			}
		}
	})
}

// FuzzHaloPlan checks the halo machinery: ColSupport/CompactCols agree,
// every compacted block re-expands onto its Need list to reproduce the
// original matrix exactly, and the skip block passes through
// uncompacted.
func FuzzHaloPlan(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 3, 2, 2, 5, 3}, byte(4), byte(6), byte(2), byte(0), byte(7))
	f.Add([]byte{9, 9, 9}, byte(1), byte(1), byte(1), byte(1), byte(0))
	f.Add([]byte{1, 0, 1, 2, 1, 2, 3, 2, 3, 4, 3, 4}, byte(6), byte(12), byte(4), byte(2), byte(3))
	f.Fuzz(func(t *testing.T, data []byte, rb, cb, pb, skipb byte, cutb byte) {
		rows, cols := dim(rb), dim(cb)
		p := 1 + int(pb)%4
		at := NewCSR(rows, cols, cooFromBytes(data, rows, cols))

		// Derive a non-decreasing column tiling from the cut byte.
		offsets := make([]int, p+1)
		offsets[p] = cols
		for j := 1; j < p; j++ {
			lo := offsets[j-1]
			offsets[j] = lo + (int(cutb)+j*int(rb+1))%(cols-lo+1)
		}
		skip := int(skipb)%(p+1) - 1 // -1 = compact everything

		plan := BuildHaloPlan(at, offsets, skip)
		if len(plan.Need) != p || len(plan.Blocks) != p {
			t.Fatalf("plan has %d/%d blocks, want %d", len(plan.Need), len(plan.Blocks), p)
		}

		var rebuilt []Coord
		for j := 0; j < p; j++ {
			blk := plan.Blocks[j]
			width := offsets[j+1] - offsets[j]
			if j == skip {
				// Uncompacted pass-through: the raw extracted block.
				if want := at.ExtractBlock(0, rows, offsets[j], offsets[j+1]); !Equal(blk, want, 0) {
					t.Fatalf("skip block %d modified", j)
				}
				if plan.Need[j] != nil {
					t.Fatalf("skip block %d has a fetch list", j)
				}
				for _, e := range blk.Entries() {
					rebuilt = append(rebuilt, Coord{Row: e.Row, Col: offsets[j] + e.Col, Val: e.Val})
				}
				continue
			}
			// The fetch list is exactly the block's column support, sorted
			// strictly ascending within the block width.
			support := ColSupport(at, offsets[j], offsets[j+1])
			if len(plan.Need[j]) != len(support) {
				t.Fatalf("block %d Need has %d entries, support %d", j, len(plan.Need[j]), len(support))
			}
			for k := range support {
				if plan.Need[j][k] != support[k] {
					t.Fatalf("block %d Need[%d] = %d, want %d", j, k, plan.Need[j][k], support[k])
				}
				if support[k] < 0 || support[k] >= width {
					t.Fatalf("block %d support %d outside width %d", j, support[k], width)
				}
				if k > 0 && support[k] <= support[k-1] {
					t.Fatalf("block %d support not strictly increasing", j)
				}
			}
			if blk.Cols != len(support) {
				t.Fatalf("block %d compacted to %d columns, support %d", j, blk.Cols, len(support))
			}
			// Re-expand the compacted block through Need back to global
			// columns.
			for _, e := range blk.Entries() {
				rebuilt = append(rebuilt, Coord{Row: e.Row, Col: offsets[j] + plan.Need[j][e.Col], Val: e.Val})
			}
		}
		if recon := NewCSR(rows, cols, rebuilt); !Equal(recon, at, 0) {
			t.Fatal("blocks do not reassemble the original matrix")
		}

		// CompactCols round-trip on the whole matrix.
		support, compact := CompactCols(at)
		var expanded []Coord
		for _, e := range compact.Entries() {
			expanded = append(expanded, Coord{Row: e.Row, Col: support[e.Col], Val: e.Val})
		}
		if recon := NewCSR(rows, cols, expanded); !Equal(recon, at, 0) {
			t.Fatal("CompactCols expansion differs from original")
		}
	})
}
