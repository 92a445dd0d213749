package main

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestTailTenBeyond pins the reporting rule: the highest nearest-rank
// percentile with at least ten samples beyond it, at the guaranteed sample
// count n; more samples only add to those beyond.
func TestTailTenBeyond(t *testing.T) {
	for n := 0; n <= tailBeyond; n++ {
		if _, ok := tailQuantile(n); ok {
			t.Fatalf("n=%d: a tail from too few samples", n)
		}
	}
	for n := tailBeyond + 1; n <= 2000; n++ {
		q, ok := tailQuantile(n)
		if !ok || q != float64(n-tailBeyond)/float64(n) {
			t.Fatalf("n=%d: q = %v", n, q)
		}
		for _, extra := range []int{0, 1, n / 3} {
			m := n + extra
			samples := make([]time.Duration, m)
			for i := range samples {
				samples[(i*7919)%m] = time.Duration(i+1) * time.Millisecond // distinct, shuffled
			}
			v := nearestRank(samples, q)
			beyond := 0
			for _, s := range samples {
				if s.Seconds() > v {
					beyond++
				}
			}
			if beyond < tailBeyond || (extra == 0 && beyond != tailBeyond) {
				t.Fatalf("n=%d m=%d: %d samples beyond the tail", n, m, beyond)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestUnmeasuredIsNotZero: a metric a workload cannot observe renders as
// "not measured" and as JSON null with a flag, never as 0.
func TestUnmeasuredIsNotZero(t *testing.T) {
	m := unmeasured("comm.send_s", "s", "in-process fabric")
	if s := m.String(); !strings.Contains(s, "not measured") {
		t.Fatalf("String() = %q", s)
	}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if v, ok := got["value"]; !ok || v != nil {
		t.Fatalf("value = %v, want null", got["value"])
	}
	if got["measured"] != false {
		t.Fatalf("measured flag = %v, want false", got["measured"])
	}

	raw, err = json.Marshal(measured("epoch_s", "s", 0.25))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != `{"value":0.25,"unit":"s"}` {
		t.Fatalf("measured JSON = %s", raw)
	}
}
