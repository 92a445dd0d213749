package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/benchdiff"
	"repro/internal/costmodel"
	"repro/internal/harness"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestSnapshotJSONSchemaGolden pins the shape of the -json snapshot —
// every experiment's field names and value kinds — against a golden
// file, so a field rename or type change that would silently break
// cagnet-benchdiff's flattener (or any committed BENCH_N.json consumer)
// fails here first. Values are free to move; only the schema is pinned.
// Regenerate after an intentional schema change with
//
//	go test ./cmd/cagnet-bench -run SchemaGolden -update
func TestSnapshotJSONSchemaGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment in quick mode (~10s)")
	}
	opts := harness.Options{Machine: costmodel.SummitSim, Quick: true, Optimizer: "sgd"}
	silence(t)
	// Every experiment except fault, whose rows this golden does not pin.
	selected := slices.DeleteFunc(slices.Clone(experimentOrder), func(name string) bool { return name == "fault" })
	results, err := runExperiments(opts, selected)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := benchSnapshot{
		Machine: opts.Machine.Name, Quick: true, Optimizer: "sgd",
		Experiments: results,
	}

	buf, err := json.MarshalIndent(snapshot, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	lines, err := benchdiff.SchemaBytes(buf)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "snapshot_schema.golden", benchdiff.SchemaString(lines))
}

// silence redirects the runners' table printing away from the test log.
func silence(t *testing.T) {
	t.Helper()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = null
	t.Cleanup(func() {
		os.Stdout = orig
		null.Close()
	})
}

func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal([]byte(got), want) {
		t.Fatalf("schema drifted from %s — if intentional, rerun with -update and note the change:\n--- got ---\n%s--- want ---\n%s",
			golden, got, want)
	}
}

// TestValidateConsumedRejections pins the fail-fast flag validation: an
// explicitly-set measurement flag that no selected experiment reads must
// error out instead of being silently dropped. One case per rejected
// combination.
func TestValidateConsumedRejections(t *testing.T) {
	cases := map[string]struct {
		explicit []string
		selected []string
	}{
		"halo with fig2":           {[]string{"halo"}, []string{"fig2"}},
		"halo with kernels":        {[]string{"halo"}, []string{"kernels"}},
		"halo with partition":      {[]string{"halo"}, []string{"partition"}},
		"partitioner with fig3":    {[]string{"partitioner"}, []string{"fig3"}},
		"overlap with fig2":        {[]string{"overlap"}, []string{"fig2"}},
		"overlap with overlap-exp": {[]string{"overlap"}, []string{"overlap"}},
		"optimizer with scaling":   {[]string{"optimizer"}, []string{"scaling"}},
	}
	for name, tc := range cases {
		explicit := map[string]bool{}
		for _, f := range tc.explicit {
			explicit[f] = true
		}
		if err := validateConsumed(explicit, tc.selected); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestValidateConsumedAccepts: flags reaching at least one selected
// experiment (notably the full default sweep) must keep working.
func TestValidateConsumedAccepts(t *testing.T) {
	all := []string{"tableVI", "fig2", "fig3", "partition", "crossover", "algo3d",
		"overlap", "kernels", "scaling", "convergence"}
	cases := map[string]struct {
		explicit []string
		selected []string
	}{
		"halo with all":           {[]string{"halo"}, all},
		"everything with all":     {[]string{"halo", "partitioner", "overlap", "optimizer"}, all},
		"halo with crossover":     {[]string{"halo"}, []string{"crossover"}},
		"overlap with algo3d":     {[]string{"overlap"}, []string{"algo3d"}},
		"optimizer w convergence": {[]string{"optimizer"}, []string{"convergence"}},
		"unrelated flags":         {[]string{"quick", "machine", "json"}, []string{"fig2"}},
		"nothing explicit":        {nil, []string{"fig2"}},
	}
	for name, tc := range cases {
		explicit := map[string]bool{}
		for _, f := range tc.explicit {
			explicit[f] = true
		}
		if err := validateConsumed(explicit, tc.selected); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
}
