package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/loadgen"
)

// metric is one reported number. A metric the workload cannot observe is
// reported with Measured false and no value — rendered as "not measured"
// and as JSON null — never as a zero that reads like a measurement.
type metric struct {
	Name     string
	Unit     string
	Value    float64
	Measured bool
	// Note carries context a bare number would lose: the sample count
	// behind a percentile, or why a metric is not measured.
	Note string
}

func measured(name, unit string, v float64) metric {
	return metric{Name: name, Unit: unit, Value: v, Measured: true}
}

func unmeasured(name, unit, why string) metric {
	return metric{Name: name, Unit: unit, Note: why}
}

// String renders the metric as one table row.
func (m metric) String() string {
	v := "not measured"
	if m.Measured {
		v = fmt.Sprintf("%.6g", m.Value)
	}
	s := fmt.Sprintf("%-28s %14s %-12s", m.Name, v, m.Unit)
	if m.Note != "" {
		s += " (" + m.Note + ")"
	}
	return s
}

// MarshalJSON writes {"value": v, "unit": u} for a measured metric and
// {"value": null, "unit": u, "measured": false} otherwise.
func (m metric) MarshalJSON() ([]byte, error) {
	if !m.Measured {
		return json.Marshal(struct {
			Value    *float64 `json:"value"`
			Unit     string   `json:"unit"`
			Measured bool     `json:"measured"`
			Note     string   `json:"note,omitempty"`
		}{nil, m.Unit, false, m.Note})
	}
	return json.Marshal(struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}{m.Value, m.Unit})
}

// median returns the median of xs (the mean of the two middle values for
// an even count); NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDuration is median over durations, in seconds.
func medianDuration(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// tailBeyond is the number of samples a reported tail percentile must
// still have above it.
const tailBeyond = 10

// tailQuantile returns the highest nearest-rank quantile that leaves at
// least tailBeyond of n samples beyond it: q = (n-10)/n, whose nearest
// rank is the 11th-largest sample. ok is false for n <= tailBeyond.
//
// A run's sample count depends on how many requests fit in its time
// budget, so the benchmark fixes n at the count every run is guaranteed
// (minRequests requests); the quantile is then the same on every run and
// a longer run only adds samples beyond it.
func tailQuantile(n int) (q float64, ok bool) {
	if n <= tailBeyond {
		return 0, false
	}
	return float64(n-tailBeyond) / float64(n), true
}

// nearestRank returns the nearest-rank q-quantile of samples in seconds,
// via loadgen.Percentile. It asks for half a rank less than q·n so float
// rounding in the product can never push the rank up by one.
func nearestRank(samples []time.Duration, q float64) float64 {
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := float64(len(sorted))
	return loadgen.Percentile(sorted, max(q-0.5/n, 0))
}
