package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sparse"
)

// The setup path — Adjacency, NewCSR, NormalizeSymmetric, ExtractBlock —
// runs in O(nnz) passes over exact-size arrays. These tests pin that
// shape (allocation counts that do not grow with the graph) and the
// output (the analogs' matrices, bit for bit).

// rmatGraph returns the symmetrized R-MAT graph with 2^scale vertices,
// the same construction AnalogSpec.Build uses.
func rmatGraph(scale int) *Graph {
	g := RMAT(scale, 8, DefaultRMAT, rand.New(rand.NewSource(int64(scale))))
	sym := New(g.NumVertices)
	for _, e := range g.Edges {
		sym.AddUndirectedEdge(e[0], e[1])
	}
	return sym
}

func TestSetupAllocsIndependentOfSize(t *testing.T) {
	type op struct {
		name  string
		want  float64
		setup func(g *Graph) func()
	}
	ops := []op{
		{"NewCSR", 6, func(g *Graph) func() {
			entries := make([]sparse.Coord, len(g.Edges))
			for k, e := range g.Edges {
				entries[k] = sparse.Coord{Row: e[0], Col: e[1], Val: 1}
			}
			return func() { sparse.NewCSR(g.NumVertices, g.NumVertices, entries) }
		}},
		{"Adjacency", 7, func(g *Graph) func() {
			return func() { g.Adjacency() }
		}},
		{"NormalizeSymmetric", 5, func(g *Graph) func() {
			a := g.Adjacency()
			return func() { sparse.NormalizeSymmetric(a) }
		}},
		{"ExtractBlock", 4, func(g *Graph) func() {
			ah := g.NormalizedAdjacency()
			n := ah.Rows
			return func() { ah.ExtractBlock(n/4, n/2, n/8, 3*n/4) }
		}},
	}
	small, large := rmatGraph(6), rmatGraph(12)
	for _, o := range ops {
		t.Run(o.name, func(t *testing.T) {
			for _, g := range []*Graph{small, large} {
				if got := testing.AllocsPerRun(5, o.setup(g)); got != o.want {
					t.Errorf("%d vertices, %d edges: %v allocs, want %v", g.NumVertices, g.NumEdges(), got, o.want)
				}
			}
		})
	}
}

// builtAnalogs builds every dataset analog once per test binary; the
// tests that read them share the build.
var builtAnalogs = sync.OnceValue(func() map[string]*Dataset {
	out := make(map[string]*Dataset, len(Analogs))
	for _, spec := range Analogs {
		out[spec.Name] = spec.Build()
	}
	return out
})

// csrDigest hashes a CSR's shape, structure and value bits.
func csrDigest(m *sparse.CSR) string {
	h := sha256.New()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	put(uint64(m.Rows))
	put(uint64(m.Cols))
	for _, v := range m.RowPtr {
		put(uint64(v))
	}
	for _, v := range m.ColIdx {
		put(uint64(v))
	}
	for _, v := range m.Val {
		put(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAnalogAdjacencyGolden pins A and D^{-1/2}(A+I)D^{-1/2} of every
// dataset analog bit for bit, so a change to the setup path cannot move
// any trained result without failing here first.
func TestAnalogAdjacencyGolden(t *testing.T) {
	golden := map[string][2]string{
		"reddit-sim": {
			"64dad3dfacee05b0c42dbc0202ef43fe383a2b953be4c1c24726fa71b6454ba5",
			"51db401c0060131459931ca3f75aa1070a7ce938805520d0301ba8c080d0754f",
		},
		"amazon-sim": {
			"a48709096100eab447ad8d76bd87edce6d35a91dc0466bbdfbdffd2e6e757c67",
			"e8af49b7ad35108671296ae78964a2bd3d84fc8989dacd634cfa8b24f675e178",
		},
		"protein-sim": {
			"0e701e123dfb52c801f64c3a6b6155adb2bb7fd4e48cf55690a5effd78bb648d",
			"603d313d620690d0e2a4fd95889a427698b935166225617de73ec4297cc289af",
		},
	}
	for _, spec := range Analogs {
		a := builtAnalogs()[spec.Name].Graph.Adjacency()
		got := [2]string{csrDigest(a), csrDigest(sparse.NormalizeSymmetric(a))}
		if got != golden[spec.Name] {
			t.Errorf("%s: digests (A, Â) = %q, want %q", spec.Name, got, golden[spec.Name])
		}
	}
}

// BenchmarkNormalizedAdjacency measures one Train call's adjacency setup at
// reddit-sim scale: 4096 vertices, about 408k directed edges.
func BenchmarkNormalizedAdjacency(b *testing.B) {
	spec, err := AnalogByName("reddit-sim")
	if err != nil {
		b.Fatal(err)
	}
	g := spec.Build().Graph
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.NormalizedAdjacency()
	}
}
