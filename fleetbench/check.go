package main

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"itask"
	"itask/internal/registry"
)

// newPipeline builds a pipeline with the standard tasks defined and the
// checkpoint directory's newest versions loaded, the way itask-serve
// -models does at start-up and on every /v1/models/reload.
func newPipeline(dir string) (*itask.Pipeline, error) {
	p := itask.New(itask.DefaultOptions())
	for _, t := range tasks {
		if err := p.DefineTask(t.Name, t.Description); err != nil {
			return nil, err
		}
	}
	return p, loadModels(p, dir)
}

// loadModels publishes every artifact of a registry-layout checkpoint
// directory into p: the teacher (which also republishes the quantized
// generalist) first, then the task students, each verified against its
// manifest checksum.
func loadModels(p *itask.Pipeline, dir string) error {
	names, err := registry.Names(dir)
	if err != nil {
		return err
	}
	var students []func() error
	for _, name := range names {
		man, vdir, err := registry.LatestManifest(dir, name)
		if err != nil {
			return err
		}
		kind, err := registry.KindFromString(man.Kind)
		if err != nil {
			return err
		}
		path := filepath.Join(vdir, man.File)
		switch kind {
		case registry.Teacher:
			if err := p.ReloadGeneralist(path, man.Checksum); err != nil {
				return fmt.Errorf("load %s: %w", name, err)
			}
		case registry.TaskSpecific:
			task, sum := man.Task, man.Checksum
			students = append(students, func() error { return p.LoadStudentVerified(task, path, sum) })
		}
	}
	for _, load := range students {
		if err := load(); err != nil {
			return err
		}
	}
	return nil
}

// lane names the model configuration that served a response: "student"
// for a distilled task-specific model, "quant" for the quantized generalist.
func lane(model string) string {
	if strings.Contains(model, "-student@") {
		return "student"
	}
	return "quant"
}

// reference computes single-image detections on an in-process pipeline
// loaded from the same checkpoint as the fleet, memoized per frame.
type reference struct {
	pipe *itask.Pipeline
	gen  *generator
	memo map[uint32][]itask.Detection
}

func newReference(pipe *itask.Pipeline, gen *generator) *reference {
	return &reference{pipe: pipe, gen: gen, memo: map[uint32][]itask.Detection{}}
}

// detect returns frame's reference detections after the same JSON round
// trip the fleet's responses take, so exact comparison is meaningful.
func (r *reference) detect(frame uint32) ([]itask.Detection, error) {
	dets, _, err := r.pipe.Detect(taskOf(frame), r.gen.image(frame))
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(dets)
	if err != nil {
		return nil, err
	}
	var out []itask.Detection
	err = json.Unmarshal(b, &out)
	return out, err
}

// compute fills the memo for frames on one goroutine per CPU.
func (r *reference) compute(frames []uint32) error {
	var todo []uint32
	for _, f := range frames {
		if _, ok := r.memo[f]; !ok {
			todo = append(todo, f)
		}
	}
	out := make([][]itask.Detection, len(todo))
	errs := make([]error, len(todo))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(todo); i = int(next.Add(1) - 1) {
				out[i], errs[i] = r.detect(todo[i])
			}
		}()
	}
	wg.Wait()
	for i, f := range todo {
		if errs[i] != nil {
			return fmt.Errorf("reference for frame %d: %w", f, errs[i])
		}
		r.memo[f] = out[i]
	}
	return nil
}

func exactMatch(a, b []itask.Detection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Tolerances for a quantized-lane detection to count as matching its
// reference.
const (
	matchIoU   = 0.9
	matchScore = 0.05
)

// closeMatch reports whether got has the same classes as ref with every
// box paired to a reference box of its class at IoU ≥ matchIoU and a score
// within matchScore. Pairing is greedy in reference order.
func closeMatch(ref, got []itask.Detection) bool {
	if len(ref) != len(got) {
		return false
	}
	used := make([]bool, len(got))
	for _, r := range ref {
		found := false
		for j, g := range got {
			if used[j] || g.Class != r.Class || itask.IoU(r.Box, g.Box) < matchIoU ||
				math.Abs(g.Score-r.Score) > matchScore {
				continue
			}
			used[j], found = true, true
			break
		}
		if !found {
			return false
		}
	}
	return true
}

// checkResult tallies how the 200 responses of a run compare with the
// single-image reference.
type checkResult struct {
	checked, matched int
	// exact and total count responses per lane ("student", "quant").
	exact, total map[string]int
	// studentMismatches counts student-lane responses that differ from the
	// reference at all; any one fails the run.
	studentMismatches int
	firstMismatch     string
}

func (c *checkResult) pass() bool { return c.studentMismatches == 0 }

func (c *checkResult) exactRatio(lane string) float64 {
	return ratio(float64(c.exact[lane]), float64(c.total[lane]))
}

func (c *checkResult) notes(label string) []string {
	out := []string{fmt.Sprintf("%s check: %d of %d responses match the single-image reference; student lane exact %d/%d, quant lane exact %d/%d",
		label, c.matched, c.checked, c.exact["student"], c.total["student"], c.exact["quant"], c.total["quant"])}
	if c.total["quant"] > c.exact["quant"] {
		out = append(out, fmt.Sprintf("%s check: the quantized lane is batch-dependent here (%d responses differ from their single-image reference); it feeds match_ratio and is not gated on exactness",
			label, c.total["quant"]-c.exact["quant"]))
	}
	if c.studentMismatches > 0 {
		out = append(out, fmt.Sprintf("%s check FAILED: %d student-lane responses differ from the reference, first: %s",
			label, c.studentMismatches, c.firstMismatch))
	}
	return out
}

// checkRecords compares every 200 response in recs with its frame's
// reference, computing the references for distinct frames in parallel.
func checkRecords(ref *reference, recs []record) (*checkResult, error) {
	var frames []uint32
	seen := map[uint32]bool{}
	for i := range recs {
		if f := recs[i].spec.frame; recs[i].ok() && !seen[f] {
			seen[f] = true
			frames = append(frames, f)
		}
	}
	if err := ref.compute(frames); err != nil {
		return nil, err
	}
	c := &checkResult{exact: map[string]int{}, total: map[string]int{}}
	for i := range recs {
		r := &recs[i]
		if !r.ok() {
			continue
		}
		want := ref.memo[r.spec.frame]
		got := r.resp.Detections
		l := lane(r.resp.Model)
		c.checked++
		c.total[l]++
		exact := exactMatch(want, got)
		if exact {
			c.exact[l]++
		}
		if exact || closeMatch(want, got) {
			c.matched++
		}
		if l == "student" && !exact {
			if c.studentMismatches == 0 {
				c.firstMismatch = fmt.Sprintf("frame %d task %s model %s: got %v want %v", r.spec.frame, taskOf(r.spec.frame), r.resp.Model, got, want)
			}
			c.studentMismatches++
		}
	}
	return c, nil
}
