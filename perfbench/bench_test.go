package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
)

// tinyConfig shrinks a workload to seconds of work: a 128-vertex graph
// and at most 6 epochs per call (enough for two checkpoints at every 5).
func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 3, seconds: 1, trace: trace, out: t.TempDir(),
		analog:   graph.AnalogSpec{Name: "tiny", Scale: 7, EdgeFactor: 8, Features: 12, Hidden: 8, Labels: 5},
		epochCap: 6,
	}
}

// lastResult parses the result line: the last line of the output.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	r := result{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metric{}}
	for name, raw := range res.Metrics {
		var v struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatal(err)
		}
		m := metric{Name: name, Unit: v.Unit}
		if v.Value != nil {
			m.Value, m.Measured = *v.Value, true
		}
		r.Metrics[name] = m
	}
	return r
}

func sortedKeys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedCopy(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}

// TestWorkloadSmoke runs every workload at tiny scale, untraced and
// traced, and checks the result line carries exactly the metrics
// BENCHMARK.json promises, all measured and nonzero where they are times.
func TestWorkloadSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, w.Name, trace)
			var out bytes.Buffer
			code, err := bench(cfg, &out)
			if code != 0 || err != nil {
				t.Fatalf("%s trace=%v: exit %d (%v)\n%s", w.Name, trace, code, err, out.String())
			}
			res := lastResult(t, out.String())
			want := jsonEndToEnd
			if trace {
				want = jsonPerLayer
			}
			if got := sortedKeys(res.Metrics); strings.Join(got, ",") != strings.Join(sortedCopy(want), ",") {
				t.Fatalf("%s trace=%v: metrics %v, want %v", w.Name, trace, got, want)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < len(w.Calls) {
				t.Fatalf("%s trace=%v: %+v", w.Name, trace, res)
			}
			for name, m := range res.Metrics {
				if !m.Measured {
					t.Errorf("%s trace=%v: %s not measured", w.Name, trace, name)
				}
			}
			text := out.String()
			for _, name := range []string{"setup_s", "epoch_s", "epoch_tail_s", "run_s", "alloc_mb", "comm_words", "modeled_epoch_s", "failed_frac"} {
				if !strings.Contains(text, "\n"+name+" ") {
					t.Errorf("%s: end-to-end metric %s not printed", w.Name, name)
				}
			}
			if trace {
				trace := filepath.Join(cfg.out, "trace-"+w.Name+"-seed3.json")
				if _, err := os.Stat(trace); err != nil {
					t.Errorf("%s: trace file: %v", w.Name, err)
				}
				if !strings.Contains(text, "# tracing overhead") || !strings.Contains(text, "core.kernel_coverage") {
					t.Errorf("%s: traced output lacks overhead or coverage:\n%s", w.Name, text)
				}
			}
		}
	}
}

// TestSerialCommNotMeasured: the serial workload has no fabric, so its
// comm metrics must read "not measured", never 0.
func TestSerialCommNotMeasured(t *testing.T) {
	var out bytes.Buffer
	if code, err := bench(tinyConfig(t, "serial-reddit", true), &out); code != 0 {
		t.Fatalf("exit %d (%v)\n%s", code, err, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		if f[0] == "comm_words" || f[0] == "modeled_epoch_s" || strings.HasPrefix(f[0], "comm.") || strings.HasPrefix(f[0], "checkpoint.") {
			if !strings.Contains(line, "not measured") {
				t.Errorf("serial reports %q", line)
			}
		}
	}
}

// TestAccounting: a call fails once however many checks it fails, and an
// errored call counts as failed.
func TestAccounting(t *testing.T) {
	spec := &callSpec{Name: "x"}
	ok := &callResult{Spec: spec}
	twice := &callResult{Spec: spec}
	twice.fail("a")
	twice.fail("b")
	errored := &callResult{Spec: spec, Err: os.ErrNotExist}
	r := &run{requests: [][]*callResult{{ok, twice}}, extraCalls: []*callResult{errored}}
	if a, f := r.accounting(); a != 3 || f != 2 {
		t.Fatalf("accounting = (%d, %d), want (3, 2)", a, f)
	}
}

// TestCrossRunDigest: a second run at the same seed must reproduce the
// first run's losses. A planted different digest forces an output check
// failure: every request's call is counted as failed, the result is
// incorrect and the command exits nonzero.
func TestCrossRunDigest(t *testing.T) {
	cfg := tinyConfig(t, "serial-reddit", false)
	var out bytes.Buffer
	if code, _ := bench(cfg, &out); code != 0 {
		t.Fatalf("first run failed:\n%s", out.String())
	}
	out.Reset()
	if code, _ := bench(cfg, &out); code != 0 {
		t.Fatalf("second run at the same seed failed:\n%s", out.String())
	}
	files, err := filepath.Glob(filepath.Join(cfg.out, "digests", "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("digest files %v (%v)", files, err)
	}
	if err := os.WriteFile(files[0], []byte(`{"serial":"0000"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	code, err := bench(cfg, &out)
	if code == 0 || err == nil || !strings.Contains(out.String(), "# FAILED serial request 0: losses differ bitwise from an earlier run") {
		t.Fatalf("planted digest mismatch not caught (exit %d):\n%s", code, out.String())
	}
	res := lastResult(t, out.String())
	// serial-reddit makes no reference calls, so every attempted call is a
	// request call, and each fails the digest check.
	if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
		t.Fatalf("result %+v, want incorrect with every request call failed", res)
	}
	if !strings.Contains(out.String(), "failed_frac ") || strings.Contains(out.String(), "(0 of") {
		t.Fatalf("failed_frac does not count the failure:\n%s", out.String())
	}
}

// TestSeedZero: cagnet.Train trains seed 0 as seed 1, and the traced TCP
// world, which builds its own nn.Config, must train the same model.
func TestSeedZero(t *testing.T) {
	cfg := tinyConfig(t, "tcp-reddit", true)
	cfg.seed = 0
	var out bytes.Buffer
	if code, err := bench(cfg, &out); code != 0 {
		t.Fatalf("seed 0: exit %d (%v)\n%s", code, err, out.String())
	}
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "serial-reddit", "--trace", "2"},
		{"--workload", "serial-reddit", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run0(append(args, "--out", t.TempDir()), &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the command in step:
// the same workloads, and result lines carrying exactly its metrics.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside perfbench: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("workloads %v, command has %v", names, have)
	}
	var e2e, layers []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name)
	}
	if strings.Join(e2e, ",") != strings.Join(jsonEndToEnd, ",") {
		t.Errorf("end_to_end %v, command prints %v", e2e, jsonEndToEnd)
	}
	if strings.Join(sortedCopy(layers), ",") != strings.Join(sortedCopy(jsonPerLayer), ",") {
		t.Errorf("per_layer %v, command prints %v", layers, jsonPerLayer)
	}
}
