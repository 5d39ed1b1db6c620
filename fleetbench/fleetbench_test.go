package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"itask"
	"itask/internal/rcache"
	"itask/internal/tensor"
	"itask/internal/wire"
)

// inputs is everything a workload sends for one seed: the open-loop
// schedule, the requests and their bodies.
func inputs(t *testing.T, w workload, seed uint64) (arrivals []time.Duration, specs []reqSpec, bodies [][]byte) {
	t.Helper()
	g := newGenerator(w, seed)
	arrivals = g.arrivals(streamArrivals, w.rate, 2*time.Second)
	specs = g.specs(streamOpen, len(arrivals), regionOpen)
	for _, s := range specs[:64] {
		bodies = append(bodies, g.body(s))
	}
	return arrivals, specs, bodies
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a1, s1, b1 := inputs(t, w, 7)
		a2, s2, b2 := inputs(t, w, 7)
		if len(a1) == 0 || len(a1) != len(a2) {
			t.Fatalf("%s: schedules of %d and %d arrivals", w.name, len(a1), len(a2))
		}
		for i := range a1 {
			if a1[i] != a2[i] || s1[i] != s2[i] {
				t.Fatalf("%s: request %d differs: %v %+v vs %v %+v", w.name, i, a1[i], s1[i], a2[i], s2[i])
			}
		}
		for i := range b1 {
			if !bytes.Equal(b1[i], b2[i]) {
				t.Fatalf("%s: body %d differs between two generators on one seed", w.name, i)
			}
		}
	}
}

func TestOtherSeedOtherInputs(t *testing.T) {
	for _, w := range workloads {
		a1, s1, b1 := inputs(t, w, 7)
		a2, s2, b2 := inputs(t, w, 8)
		sameArrivals := len(a1) == len(a2)
		for i := 0; sameArrivals && i < len(a1); i++ {
			sameArrivals = a1[i] == a2[i]
		}
		if sameArrivals {
			t.Errorf("%s: seeds 7 and 8 give the same arrival schedule", w.name)
		}
		sameSpecs, sameBodies := true, true
		for i := range b1 {
			sameSpecs = sameSpecs && s1[i] == s2[i]
			sameBodies = sameBodies && bytes.Equal(b1[i], b2[i])
		}
		if sameSpecs && w.universe > 0 {
			t.Errorf("%s: seeds 7 and 8 draw the same frames", w.name)
		}
		if sameBodies {
			t.Errorf("%s: seeds 7 and 8 give the same bodies", w.name)
		}
	}
}

func TestUniqueFramesNeverRepeat(t *testing.T) {
	w, _ := workloadByName("unique_bin")
	g := newGenerator(w, 1)
	seen := map[uint32]bool{}
	digests := map[uint64]uint32{}
	for _, region := range []uint32{regionOpen, regionClosed, regionWarm, regionProbe} {
		for _, s := range g.specs(streamOpen, 600, region) {
			if seen[s.frame] {
				t.Fatalf("frame %d sent twice", s.frame)
			}
			seen[s.frame] = true
			d := rcache.DigestImage(g.image(s.frame))
			if prev, dup := digests[d]; dup {
				t.Fatalf("frames %d and %d have the same content digest", prev, s.frame)
			}
			digests[d] = s.frame
		}
	}
}

func TestZipfRankZeroShare(t *testing.T) {
	for _, name := range []string{"zipf_bin", "mixed_publish"} {
		w, _ := workloadByName(name)
		h := 0.0
		for r := 1; r <= w.universe; r++ {
			h += math.Pow(float64(r), -w.zipfS)
		}
		want := 1 / h
		const n = 100000
		hits := 0
		for _, s := range newGenerator(w, 3).specs(streamClosed, n, regionClosed) {
			if s.frame == 0 {
				hits++
			}
		}
		got := float64(hits) / n
		// Five standard errors of a binomial share at n draws.
		band := 5 * math.Sqrt(want*(1-want)/n)
		if math.Abs(got-want) > band {
			t.Errorf("%s: rank 0 drew %.4f of requests, want %.4f ± %.4f", name, got, want, band)
		}
	}
}

// mixed_uniform is in BENCHMARK.json because no request of it fails: no
// frame may come near the hot threshold (64 windowed arrivals, at the gateway
// and at each shard) within a run, or the X-Itask-Hot panic would 502 it.
// 12000 requests is more than a 45 s run sends.
func TestMixedUniformStaysCold(t *testing.T) {
	w, _ := workloadByName("mixed_uniform")
	for seed := uint64(1); seed <= 3; seed++ {
		count := map[uint32]int{}
		most := 0
		for _, s := range newGenerator(w, seed).specs(streamClosed, 12000, regionClosed) {
			count[s.frame]++
			most = max(most, count[s.frame])
		}
		if most >= 32 {
			t.Errorf("seed %d: a frame drew %d of 12000 requests, want < 32", seed, most)
		}
	}
}

func TestTenantAndEncodingShares(t *testing.T) {
	for _, name := range []string{"mixed_publish", "mixed_uniform"} {
		w, _ := workloadByName(name)
		specs := newGenerator(w, 3).specs(streamClosed, 40000, regionClosed)
		tenantA, jsonN := 0, 0
		for _, s := range specs {
			if s.tenant == 0 {
				tenantA++
			}
			if s.json {
				jsonN++
			}
		}
		if got := float64(tenantA) / float64(len(specs)); math.Abs(got-0.75) > 0.02 {
			t.Errorf("%s: tenant a offered %.3f of requests, want 0.75", name, got)
		}
		if got := float64(jsonN) / float64(len(specs)); math.Abs(got-0.5) > 0.02 {
			t.Errorf("%s: JSON bodies are %.3f of requests, want 0.5", name, got)
		}
	}
}

// A JSON body and the binary frame of one frame must carry the same
// floats, so both encodings digest, route and cache alike.
func TestJSONBodyMatchesFrame(t *testing.T) {
	w, _ := workloadByName("mixed_publish")
	g := newGenerator(w, 1)
	for frame := uint32(0); frame < 8; frame++ {
		fr, err := wire.ParseFrame(g.body(reqSpec{frame: frame}))
		if err != nil {
			t.Fatal(err)
		}
		var jb struct {
			Task  string `json:"task"`
			Image struct {
				Shape []int     `json:"shape"`
				Data  []float32 `json:"data"`
			} `json:"image"`
		}
		if err := json.Unmarshal(g.body(reqSpec{frame: frame, json: true}), &jb); err != nil {
			t.Fatal(err)
		}
		if jb.Task != string(fr.Task) || jb.Task != taskOf(frame) {
			t.Fatalf("frame %d: tasks %q (JSON) and %q (binary)", frame, jb.Task, fr.Task)
		}
		img := tensor.FromSlice(jb.Image.Data, jb.Image.Shape[0], jb.Image.Shape[1], jb.Image.Shape[2])
		if rcache.DigestImage(img) != rcache.DigestFrame(fr.Shape[:], fr.Payload) {
			t.Fatalf("frame %d: JSON and binary bodies digest differently", frame)
		}
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n         int
		pct, want float64
	}{
		{20, 50, 10},
		{199, 90, 180},
		{999, 95, 950},
		{1000, 99, 990},
		{9999, 99, 9900},
		{10000, 99.9, 9990},
		{100000, 99.99, 99990},
	} {
		pct, v, ok := tail(seq(c.n))
		if !ok || pct != c.pct || v != c.want {
			t.Errorf("tail of %d samples = p%v %v (ok %v), want p%v %v", c.n, pct, v, ok, c.pct, c.want)
		}
	}
	if _, _, ok := tail(seq(19)); ok {
		t.Error("19 samples support no percentile with 10 beyond it")
	}
}

func TestComparatorRejectsPerturbedDetection(t *testing.T) {
	ref := []itask.Detection{
		{Box: itask.Box{X: 0.3, Y: 0.5, W: 0.4, H: 0.3}, Class: "truck", ClassID: 1, Score: 0.6, Relevance: 0.9},
		{Box: itask.Box{X: 0.7, Y: 0.2, W: 0.2, H: 0.2}, Class: "car", ClassID: 0, Score: 0.4, Relevance: 0.8},
	}
	clone := func() []itask.Detection { return append([]itask.Detection(nil), ref...) }
	if got := clone(); !exactMatch(ref, got) || !closeMatch(ref, got) {
		t.Fatal("identical detections must match")
	}
	reordered := []itask.Detection{ref[1], ref[0]}
	if exactMatch(ref, reordered) || !closeMatch(ref, reordered) {
		t.Error("reordered detections: want inexact but close")
	}
	for name, perturb := range map[string]func(d []itask.Detection) []itask.Detection{
		"score by 1e-9": func(d []itask.Detection) []itask.Detection { d[0].Score += 1e-9; return d },
		"box by 1e-9":   func(d []itask.Detection) []itask.Detection { d[1].Box.X += 1e-9; return d },
	} {
		got := perturb(clone())
		if exactMatch(ref, got) {
			t.Errorf("%s: exact comparison accepted a perturbed detection", name)
		}
		if !closeMatch(ref, got) {
			t.Errorf("%s: within tolerance, want a close match", name)
		}
	}
	for name, perturb := range map[string]func(d []itask.Detection) []itask.Detection{
		"score by 0.1":  func(d []itask.Detection) []itask.Detection { d[0].Score += 0.1; return d },
		"class":         func(d []itask.Detection) []itask.Detection { d[1].Class = "truck"; return d },
		"box moved":     func(d []itask.Detection) []itask.Detection { d[0].Box.X += 0.1; return d },
		"box dropped":   func(d []itask.Detection) []itask.Detection { return d[:1] },
		"box added":     func(d []itask.Detection) []itask.Detection { return append(d, d[0]) },
		"empty answer":  func(d []itask.Detection) []itask.Detection { return nil },
		"box duplicate": func(d []itask.Detection) []itask.Detection { d[1] = d[0]; return d },
	} {
		got := perturb(clone())
		if exactMatch(ref, got) || closeMatch(ref, got) {
			t.Errorf("%s: comparator accepted a perturbed detection", name)
		}
	}
}

func TestLane(t *testing.T) {
	for model, want := range map[string]string{
		"patrol-student@v3#8ef8f65274012dd0": "student",
		"generalist-q8@v1#84f5ca939fbc4476":  "quant",
	} {
		if got := lane(model); got != want {
			t.Errorf("lane(%q) = %q, want %q", model, got, want)
		}
	}
}

// BENCHMARK.json at the repository root must describe exactly what this
// command runs and prints.
func TestBenchmarkFileMatchesCommand(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json lists workload %q, which the command does not run", w.Name)
		}
	}
	check := func(kind string, file []struct{ Name, Unit string }, here []struct{ name, unit string }) {
		if len(file) != len(here) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(file), len(here))
			return
		}
		for i := range file {
			if file[i].Name != here[i].name || file[i].Unit != here[i].unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] printed", kind, i, file[i].Name, file[i].Unit, here[i].name, here[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	stated := false
	for _, w := range bf.Workloads {
		stated = stated || strings.Contains(w.Why, "layer-sum tolerance 0.25")
	}
	if !stated || layerSumTolerance != 0.25 {
		t.Error("BENCHMARK.json must state the traced layer-sum tolerance the command applies")
	}
}
