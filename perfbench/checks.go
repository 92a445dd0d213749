package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/tolerance"
)

// Tolerance of a distributed call's losses against the serial reference:
// the decompositions reorder floating-point accumulation, nothing more
// (observed |Δ| is around 1e-14 on reddit-sim).
const (
	lossMaxAbs = 1e-9
	lossMaxRel = 1e-9
)

// check runs every output check on the finished request loop. None of it
// is timed. Each failure is recorded on the call it concerns; reference
// calls the checks make are accounted like any other call.
func (r *run) check(digestDir string) {
	calls := r.requestCalls()
	first := map[string]*callResult{}
	for _, c := range calls {
		if c.Err != nil {
			continue
		}
		f, ok := first[c.Spec.Name]
		if !ok {
			first[c.Spec.Name] = c
			continue
		}
		if !bitEqual(c.Report.Losses, f.Report.Losses) {
			c.fail("losses differ bitwise from request %d", f.Request)
		}
		if !wordsEqual(c.Report.WordsByCategory, f.Report.WordsByCategory) {
			c.fail("comm words %v differ from request %d's %v", c.Report.WordsByCategory, f.Request, f.Report.WordsByCategory)
		}
	}

	if epochs := r.maxDistributedEpochs(); epochs > 0 {
		ref := r.reference("serial-reference", cagnet.TrainOptions{Algorithm: "serial", Epochs: epochs})
		for _, c := range calls {
			if c.Err != nil || !c.Spec.distributed() || ref.Err != nil {
				continue
			}
			if err := tolerance.CloseSlice(c.Spec.Name+" losses vs serial", c.Report.Losses, ref.Report.Losses[:len(c.Report.Losses)], lossMaxAbs, lossMaxRel); err != nil {
				c.fail("%v", err)
			}
		}
	}

	for i := range r.w.Calls {
		spec := &r.w.Calls[i]
		if spec.Opts.Transport != "tcp" {
			continue
		}
		o := spec.Opts
		o.Transport, o.Checkpoint = "", cagnet.CheckpointOptions{}
		ref := r.reference(spec.Name+"-inproc", o)
		for _, c := range calls {
			if c.Spec != spec || c.Err != nil {
				continue
			}
			if ref.Err == nil && !bitEqual(c.Report.Losses, ref.Report.Losses) {
				c.fail("tcp losses differ bitwise from the in-process run")
			}
		}
	}

	for _, c := range calls {
		if c.CkptDir != "" && c.Err == nil {
			if err := checkSnapshots(c); err != nil {
				c.fail("%v", err)
			}
		}
	}

	if digestDir != "" {
		r.checkDigests(digestDir)
	}
}

// reference runs one untimed call for the checks.
func (r *run) reference(name string, o cagnet.TrainOptions) *callResult {
	spec := &callSpec{Name: name, Opts: base(o)}
	rec := newBoundaryRecorder(spec.ranks(), o.Epochs)
	c := r.call(-1, spec, rec, &spec.Opts)
	if c.Err != nil {
		c.Err = fmt.Errorf("%s: %w", name, c.Err)
	}
	r.extraCalls = append(r.extraCalls, c)
	return c
}

func (r *run) maxDistributedEpochs() int {
	n := 0
	for i := range r.w.Calls {
		if r.w.Calls[i].distributed() {
			n = max(n, r.w.Calls[i].Opts.Epochs)
		}
	}
	return n
}

// checkSnapshots verifies the newest snapshot in a checkpointing call's
// directory loads, is at the last saved epoch, and holds the call's
// losses; pruning must have left exactly checkpointKeep files.
func checkSnapshots(c *callResult) error {
	path, err := checkpoint.Latest(c.CkptDir)
	if err != nil {
		return err
	}
	if path == "" {
		return errors.New("no snapshot written")
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		return err
	}
	if want := len(c.Report.Losses); snap.Epoch != want {
		return fmt.Errorf("newest snapshot is at epoch %d, want %d", snap.Epoch, want)
	}
	if !bitEqual(snap.Losses, c.Report.Losses) {
		return errors.New("newest snapshot's losses differ from the run's")
	}
	files, err := filepath.Glob(filepath.Join(c.CkptDir, "ckpt-*.ckpt"))
	if err != nil {
		return err
	}
	if len(files) != checkpointKeep {
		return fmt.Errorf("%d snapshot files kept, want %d", len(files), checkpointKeep)
	}
	return nil
}

// checkDigests compares each configuration's loss digest with the one an
// earlier run of the same executable recorded at the same seed, and
// records it when there is none: losses must be bit-identical across runs,
// not only across one run's requests.
func (r *run) checkDigests(dir string) {
	exe, err := executableDigest()
	if err != nil {
		return // without a key there is nothing safe to compare against
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", r.w.Name, r.seed, exe[:16]))
	got := map[string]string{}
	byName := map[string][]*callResult{}
	for _, c := range r.requestCalls() {
		if c.Err == nil {
			got[c.Spec.Name] = lossDigest(c.Report.Losses)
			byName[c.Spec.Name] = append(byName[c.Spec.Name], c)
		}
	}
	if raw, err := os.ReadFile(path); err == nil {
		var want map[string]string
		if err := json.Unmarshal(raw, &want); err == nil {
			for n, digest := range got {
				if w, ok := want[n]; ok && w != digest {
					for _, c := range byName[n] {
						c.fail("losses differ bitwise from an earlier run at seed %d", r.seed)
					}
				}
			}
			return
		}
	}
	raw, _ := json.Marshal(got)
	if err := os.MkdirAll(dir, 0o755); err == nil {
		_ = os.WriteFile(path, raw, 0o644) // best effort: a missing record only skips the next comparison
	}
}

func executableDigest() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func lossDigest(losses []float64) string {
	h := sha256.New()
	for _, l := range losses {
		fmt.Fprintf(h, "%016x", math.Float64bits(l))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func wordsEqual(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}
