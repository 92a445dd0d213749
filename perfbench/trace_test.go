package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// TestSelfTimeOverlappingChildren: self time subtracts the union of the
// children's intervals, so concurrent children are not counted twice, and
// a child running past its parent counts only inside it.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(40), Parent: 0},
		{Name: "b", Start: ms(30), End: ms(60), Parent: 0},  // overlaps a
		{Name: "c", Start: ms(90), End: ms(120), Parent: 0}, // runs past root
		{Name: "a1", Start: ms(15), End: ms(20), Parent: 1},
		{Name: "a2", Start: ms(18), End: ms(25), Parent: 1},
	}
	self := selfTimes(spans)
	want := []time.Duration{ms(40), ms(20), ms(30), ms(30), ms(5), ms(7)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("%s: self %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
}

func TestUnionLength(t *testing.T) {
	for _, tc := range []struct {
		ivs  [][2]time.Duration
		want time.Duration
	}{
		{nil, 0},
		{[][2]time.Duration{{ms(0), ms(5)}}, ms(5)},
		{[][2]time.Duration{{ms(5), ms(9)}, {ms(0), ms(5)}}, ms(9)},
		{[][2]time.Duration{{ms(0), ms(10)}, {ms(2), ms(3)}, {ms(20), ms(21)}}, ms(11)},
	} {
		if got := unionLength(tc.ivs); got != tc.want {
			t.Errorf("unionLength(%v) = %v, want %v", tc.ivs, got, tc.want)
		}
	}
}

func TestSelfTable(t *testing.T) {
	spans := []span{
		{Name: "run", Layer: "bench", Start: 0, End: ms(100), Parent: -1},
		{Name: "x", Layer: "sparse", Start: 0, End: ms(30), Parent: 0},
		{Name: "y", Layer: "sparse", Start: ms(50), End: ms(60), Parent: 0},
	}
	rows := selfTable(spans)
	if len(rows) != 2 || rows[0].Layer != "bench" || rows[1].Layer != "sparse" {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[1].Spans != 2 || math.Abs(rows[1].SelfS-0.04) > 1e-12 || math.Abs(rows[0].SelfS-0.06) > 1e-12 {
		t.Fatalf("rows = %+v", rows)
	}
}

// TestChromeTrace: the file parses as trace-event JSON with one named
// track per rank that has spans.
func TestChromeTrace(t *testing.T) {
	spans := []span{
		{Name: "run", Layer: "bench", Start: 0, End: ms(10), Parent: -1},
		{Name: "comm.Send 1", Layer: "comm", Start: ms(1), End: ms(2), Parent: 0, Track: 1},
		{Name: "comm.Recv 0", Layer: "comm", Start: ms(1), End: ms(3), Parent: 0, Track: 2},
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, spans, map[string]any{"k": 1}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent  `json:"traceEvents"`
		OtherData   map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	names := map[int]string{}
	complete := 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			names[ev.Tid] = ev.Args["name"].(string)
		case "X":
			complete++
		}
	}
	if complete != 3 || names[0] != "client" || names[1] != "rank 0" || names[2] != "rank 1" {
		t.Fatalf("complete=%d tracks=%v", complete, names)
	}
	if doc.OtherData["k"] != float64(1) {
		t.Fatalf("otherData = %v", doc.OtherData)
	}
}
