package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one traced interval. Spans live in memory for the whole run and
// are written once at exit.
type span struct {
	Name   string
	Layer  string // module the self-time table groups by
	Start  time.Duration
	End    time.Duration
	Parent int // index of the parent span, -1 for the root
	Req    int // request id; -1 outside the request loop
	Track  int // 0 for the client, 1+r for rank r's transport calls
}

// tracer collects spans; index 0 is the root once begun.
type tracer struct {
	spans []span
}

func (t *tracer) add(s span) int {
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// selfTimes returns each span's duration minus the part of it its
// children cover. Children may overlap one another (the ranks' transport
// calls run concurrently), so the covered part is the length of the union
// of the children's intervals, clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		out[i] = s.End - s.Start - unionLength(ivs)
	}
	return out
}

// unionLength is the total length covered by a set of intervals.
func unionLength(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, iv := range ivs {
		if !open || iv[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = iv[0], iv[1], true
			continue
		}
		curHi = max(curHi, iv[1])
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerSelf is one row of the self-time table.
type layerSelf struct {
	Layer string  `json:"layer"`
	Spans int     `json:"spans"`
	SelfS float64 `json:"self_s"`
}

// selfTable sums self time per layer, largest first.
func selfTable(spans []span) []layerSelf {
	self := selfTimes(spans)
	rows := map[string]*layerSelf{}
	for i, s := range spans {
		row, ok := rows[s.Layer]
		if !ok {
			row = &layerSelf{Layer: s.Layer}
			rows[s.Layer] = row
		}
		row.Spans++
		row.SelfS += self[i].Seconds()
	}
	out := make([]layerSelf, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfS != out[j].SelfS {
			return out[i].SelfS > out[j].SelfS
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

// chromeEvent is one Chrome trace-event ("X" complete event or "M"
// metadata event).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto): one track for the client and one per
// rank that has transport spans. other lands in the file's otherData.
func writeChromeTrace(path string, spans []span, other map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tracks := map[int]bool{}
	events := make([]chromeEvent, 0, len(spans)+8)
	for i, s := range spans {
		tracks[s.Track] = true
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Track,
			Args: map[string]any{"span": i, "parent": s.Parent, "req": s.Req},
		})
	}
	ids := make([]int, 0, len(tracks))
	for id := range tracks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		name := "client"
		if id > 0 {
			name = fmt.Sprintf("rank %d", id-1)
		}
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: id, Args: map[string]any{"name": name}})
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       other,
	}); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// callSpans records a call and its epochs under parent: epoch 1 runs from
// the call's start (so it includes setup), each later epoch between two
// boundaries, and "finalize" from the last boundary to the return.
func (t *tracer) callSpans(c *callResult, parent int) int {
	id := t.add(span{Name: "call " + c.Spec.Name, Layer: "core", Start: c.Start, End: c.End, Parent: parent, Req: c.Request})
	prev := c.Start
	for e, b := range c.Bounds {
		name := fmt.Sprintf("epoch %d", e+1)
		if e == 0 {
			name = "setup+epoch 1"
		}
		t.add(span{Name: name, Layer: "core", Start: prev, End: b, Parent: id, Req: c.Request})
		prev = b
	}
	if len(c.Bounds) > 0 {
		t.add(span{Name: "finalize", Layer: "core", Start: prev, End: c.End, Parent: id, Req: c.Request})
	}
	return id
}

// epochParent returns the index of the span among [first, last) that
// contains instant at, or fallback.
func (t *tracer) epochParent(first, last int, at time.Duration, fallback int) int {
	for i := first; i < last; i++ {
		if s := t.spans[i]; s.Start <= at && at < s.End {
			return i
		}
	}
	return fallback
}
