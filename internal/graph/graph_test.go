package graph

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sparse"
)

func TestAddEdgeAndAdjacency(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 1) // duplicate collapses
	a := g.Adjacency()
	if a.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", a.NNZ())
	}
	if a.At(0, 1) != 1 || a.At(1, 2) != 1 {
		t.Fatal("adjacency entries wrong")
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	g := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.AddEdge(0, 2)
}

func TestAddUndirectedEdge(t *testing.T) {
	g := New(3)
	g.AddUndirectedEdge(0, 2)
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	g.AddUndirectedEdge(1, 1) // self-loop stored once
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3 after self-loop", g.NumEdges())
	}
}

func TestRingStructure(t *testing.T) {
	g := Ring(5)
	a := g.Adjacency()
	if a.NNZ() != 10 {
		t.Fatalf("ring(5) NNZ = %d, want 10", a.NNZ())
	}
	for i := 0; i < 5; i++ {
		if a.At(i, (i+1)%5) != 1 || a.At((i+1)%5, i) != 1 {
			t.Fatalf("ring missing edge at %d", i)
		}
	}
	st := Stats(a)
	if st.MinDegree != 2 || st.MaxDegree != 2 {
		t.Fatalf("ring degrees = %+v, want all 2", st)
	}
}

func TestStarStructure(t *testing.T) {
	a := Star(6).Adjacency()
	st := Stats(a)
	if st.MaxDegree != 5 || st.MinDegree != 1 {
		t.Fatalf("star stats = %+v", st)
	}
}

func TestCompleteStructure(t *testing.T) {
	a := Complete(4).Adjacency()
	if a.NNZ() != 12 {
		t.Fatalf("K4 NNZ = %d, want 12", a.NNZ())
	}
}

func TestGrid2D(t *testing.T) {
	g := Grid2D(3, 4)
	if g.NumVertices != 12 {
		t.Fatalf("grid vertices = %d", g.NumVertices)
	}
	// 3x4 grid has 3*3 + 2*4 = 17 undirected edges = 34 directed.
	if g.NumEdges() != 34 {
		t.Fatalf("grid edges = %d, want 34", g.NumEdges())
	}
}

func TestErdosRenyiDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := ErdosRenyi(2000, 10, rng)
	d := float64(g.NumEdges()) / 2000
	if d < 7 || d > 13 {
		t.Fatalf("ER avg degree = %v, want ≈10", d)
	}
}

func TestErdosRenyiNoSelfLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := ErdosRenyi(500, 8, rng)
	for _, e := range g.Edges {
		if e[0] == e[1] {
			t.Fatal("ER generated a self-loop")
		}
	}
}

func TestRMATProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	g := RMAT(10, 16, DefaultRMAT, rng)
	if g.NumVertices != 1024 {
		t.Fatalf("RMAT vertices = %d, want 1024", g.NumVertices)
	}
	// Heavy-tailed: max degree should far exceed average.
	st := Stats(g.Adjacency())
	if st.MaxDegree < int(3*st.AvgDegree) {
		t.Fatalf("RMAT not heavy-tailed: max %d vs avg %.1f", st.MaxDegree, st.AvgDegree)
	}
}

func TestRMATDeterministicWithSeed(t *testing.T) {
	a := RMAT(8, 8, DefaultRMAT, rand.New(rand.NewSource(1)))
	b := RMAT(8, 8, DefaultRMAT, rand.New(rand.NewSource(1)))
	if len(a.Edges) != len(b.Edges) {
		t.Fatal("RMAT not deterministic")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("RMAT not deterministic")
		}
	}
}

func TestPermuteVerticesPreservesStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	g := Ring(10)
	p, perm := g.PermuteVertices(rng)
	if len(perm) != 10 || p.NumEdges() != g.NumEdges() {
		t.Fatal("permutation changed edge count")
	}
	// Degrees must be preserved under relabeling.
	sa, sb := Stats(g.Adjacency()), Stats(p.Adjacency())
	if sa != sb {
		t.Fatalf("permutation changed degree stats: %+v vs %+v", sa, sb)
	}
}

func TestNormalizedAdjacencyRowSumsBounded(t *testing.T) {
	g := Ring(8)
	norm := g.NormalizedAdjacency()
	if norm.NNZ() != 24 { // ring + self loops
		t.Fatalf("normalized NNZ = %d, want 24", norm.NNZ())
	}
	// All values in (0, 1].
	for _, v := range norm.Val {
		if v <= 0 || v > 1 {
			t.Fatalf("normalized value %v out of (0,1]", v)
		}
	}
}

func TestStatsEmptyGraph(t *testing.T) {
	st := Stats(New(4).Adjacency())
	if st.EmptyRows != 4 || st.MinDegree != 0 || st.AvgDegree != 0 {
		t.Fatalf("empty stats = %+v", st)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	g := ErdosRenyi(300, 5, rng)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices != g.NumVertices || len(got.Edges) != len(g.Edges) {
		t.Fatal("binary round trip changed shape")
	}
	for i := range g.Edges {
		if got.Edges[i] != g.Edges[i] {
			t.Fatalf("edge %d mismatch", i)
		}
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader(make([]byte, 16))); err == nil {
		t.Fatal("expected error for bad magic")
	}
}

func TestTextRoundTrip(t *testing.T) {
	g := Ring(6)
	var buf bytes.Buffer
	if err := g.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices != 6 || len(got.Edges) != len(g.Edges) {
		t.Fatal("text round trip changed shape")
	}
}

func TestReadTextComments(t *testing.T) {
	in := "# comment\n3 2\n\n0 1\n% more\n1 2\n"
	g, err := ReadText(bytes.NewReader([]byte(in)))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices != 3 || len(g.Edges) != 2 {
		t.Fatalf("parsed %d vertices %d edges", g.NumVertices, len(g.Edges))
	}
}

func TestReadTextEdgeCountMismatch(t *testing.T) {
	if _, err := ReadText(bytes.NewReader([]byte("3 5\n0 1\n"))); err == nil {
		t.Fatal("expected edge-count mismatch error")
	}
}

func TestAnalogSpecs(t *testing.T) {
	if len(Analogs) != 3 {
		t.Fatalf("want 3 analogs, got %d", len(Analogs))
	}
	for _, spec := range Analogs {
		if _, err := AnalogByName(spec.Name); err != nil {
			t.Fatal(err)
		}
		if spec.Paper.Vertices == 0 || spec.Paper.Edges == 0 {
			t.Fatalf("%s missing paper-scale data", spec.Name)
		}
	}
	if _, err := AnalogByName("nope"); err == nil {
		t.Fatal("expected error for unknown analog")
	}
}

func TestAnalogBuildSmall(t *testing.T) {
	spec := AnalogSpec{
		Name: "tiny", Scale: 8, EdgeFactor: 8,
		Features: 10, Hidden: 4, Labels: 3, Seed: 7,
	}
	d := spec.Build()
	if d.Graph.NumVertices != 256 {
		t.Fatalf("vertices = %d, want 256", d.Graph.NumVertices)
	}
	if d.Features.Rows != 256 || d.Features.Cols != 10 {
		t.Fatal("features shape wrong")
	}
	if len(d.Labels) != 256 {
		t.Fatal("labels length wrong")
	}
	for _, l := range d.Labels {
		if l < 0 || l >= 3 {
			t.Fatalf("label %d out of range", l)
		}
	}
	w := d.LayerWidths()
	if len(w) != 3 || w[0] != 10 || w[1] != 4 || w[2] != 3 {
		t.Fatalf("LayerWidths = %v", w)
	}
	// Symmetry: adjacency must equal its transpose.
	a := d.Graph.Adjacency()
	if !sparse.Equal(a, a.Transpose(), 0) {
		t.Fatal("analog graph must be symmetric")
	}
}

func TestAnalogDFRatios(t *testing.T) {
	// The analogs must preserve the paper's d/f ordering:
	// amazon (f >> d) < reddit ≈ protein (d ≈ f).
	ratios := map[string]float64{}
	for _, spec := range Analogs {
		a := builtAnalogs()[spec.Name].Graph.Adjacency()
		fAvg := float64(spec.Features+spec.Hidden+spec.Labels) / 3
		ratios[spec.Name] = a.AvgDegree() / fAvg
	}
	if !(ratios["amazon-sim"] < ratios["reddit-sim"]) {
		t.Fatalf("d/f ordering violated: %v", ratios)
	}
	if !(ratios["amazon-sim"] < ratios["protein-sim"]) {
		t.Fatalf("d/f ordering violated: %v", ratios)
	}
	if math.IsNaN(ratios["reddit-sim"]) {
		t.Fatal("NaN ratio")
	}
}

func TestSyntheticDataset(t *testing.T) {
	d := Synthetic("test", Ring(12), 5, 4, 3, 9)
	if d.FeatureLen() != 5 || d.NumLabels != 3 || len(d.Labels) != 12 {
		t.Fatal("Synthetic dataset malformed")
	}
}
