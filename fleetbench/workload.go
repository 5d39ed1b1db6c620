package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"time"

	"itask"
	"itask/internal/dataset"
	"itask/internal/tensor"
	"itask/internal/wire"
)

// workload is one traffic mix. Every request carries a 3×32×32 frame; the
// frame index decides its content and its task (the four standard tasks in
// round-robin order of frame index).
type workload struct {
	name string
	// rate is the open-loop Poisson arrival rate, requests per second.
	rate float64
	// universe is the number of distinct frames requests draw from with
	// zipf(zipfS) skew (zipfS 0: uniformly); 0 means every request carries a frame never sent
	// before.
	universe int
	zipfS    float64
	// jsonShare is the fraction of requests sent as JSON bodies; the rest
	// are binary application/x-itask-tensor frames.
	jsonShare float64
	// tenants and their offered traffic weights.
	tenants []string
	weights []float64
	// reload posts a fleet-wide model reload through the gateway halfway
	// through every measured window. The reloads then keep a fixed period
	// (2.25 s in a 45 s run) and each window's tail holds one publish, which
	// keeps the windowed tail percentiles steady from run to run.
	reload bool
}

// workloads are the traffic mixes the command runs. BENCHMARK.json lists
// unique_bin and mixed_uniform, the two on which no request fails at the
// seed. zipf_bin and mixed_publish run with their full skew but are
// left out of it: their skewed frames turn digests hot, and the gateway's
// X-Itask-Hot hint then panics the shards (502) on about 60% and 14% of their
// requests. mixed_uniform is mixed_publish with its frames drawn uniformly
// from 1024: about 10 arrivals per frame in a 45 s run, far below the hot
// threshold of 64 at the gateway and at the shards.
var workloads = []workload{
	{name: "unique_bin", rate: 250, tenants: []string{"a"}, weights: []float64{1}},
	{name: "zipf_bin", rate: 800, universe: 256, zipfS: 1.1, tenants: []string{"a"}, weights: []float64{1}},
	{name: "mixed_publish", rate: 120, universe: 4096, zipfS: 0.9, jsonShare: 0.5,
		tenants: []string{"a", "b"}, weights: []float64{3, 1}, reload: true},
	{name: "mixed_uniform", rate: 120, universe: 1024, jsonShare: 0.5,
		tenants: []string{"a", "b"}, weights: []float64{3, 1}, reload: true},
}

// benchTenants are the tenant names per-layer metrics report on, whether or
// not a workload sends traffic for them.
var benchTenants = []string{"a", "b"}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// reqSpec is one generated request: which frame, which tenant (an index
// into workload.tenants) and which encoding.
type reqSpec struct {
	frame  uint32
	tenant uint8
	json   bool
}

// Frame-index regions that keep the phases of a unique-frame workload from
// ever sending the same frame twice.
const (
	regionOpen   = 0
	regionClosed = 1 << 28
	regionWarm   = 2 << 28
	regionProbe  = 3 << 28
)

const (
	imgSize     = 32
	basesPerTsk = 64
	// perturbBits is how many pixels encode a frame's index, so frames that
	// share a base scene still differ in content.
	perturbBits = 32
)

var tasks = dataset.StandardTasks()

// generator makes a workload's requests and frames from a seed. Everything
// it returns is a pure function of (workload, seed, stream).
type generator struct {
	w     workload
	seed  uint64
	bases [][]*tensor.Tensor // [task][base] rendered scenes
	cdf   []float64          // zipf cumulative weights over ranks
	tcdf  []float64          // tenant cumulative weights
}

func newGenerator(w workload, seed uint64) *generator {
	g := &generator{w: w, seed: seed, bases: make([][]*tensor.Tensor, len(tasks))}
	for t, task := range tasks {
		g.bases[t] = make([]*tensor.Tensor, basesPerTsk)
		for b := range g.bases[t] {
			img, _ := itask.GenerateScene(task.Domain, mix(seed, uint64(t)<<32|uint64(b)))
			g.bases[t][b] = img
		}
	}
	if w.universe > 0 {
		g.cdf = cumulative(w.universe, func(r int) float64 { return math.Pow(float64(r+1), -w.zipfS) })
	}
	g.tcdf = cumulative(len(w.weights), func(i int) float64 { return w.weights[i] })
	return g
}

func cumulative(n int, weight func(int) float64) []float64 {
	c := make([]float64, n)
	sum := 0.0
	for i := range c {
		sum += weight(i)
		c[i] = sum
	}
	for i := range c {
		c[i] /= sum
	}
	return c
}

func pick(cdf []float64, u float64) int {
	i := sort.SearchFloat64s(cdf, u)
	if i >= len(cdf) {
		i = len(cdf) - 1
	}
	return i
}

// mix is the splitmix64 finalizer over a seed and a stream id.
func mix(seed, stream uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (g *generator) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(g.seed, mix(g.seed, stream)))
}

// specs returns n requests of one stream. region offsets the frame indices
// of unique-frame workloads.
func (g *generator) specs(stream uint64, n int, region uint32) []reqSpec {
	r := g.rng(stream)
	out := make([]reqSpec, n)
	for i := range out {
		s := &out[i]
		if g.cdf != nil {
			s.frame = uint32(pick(g.cdf, r.Float64()))
		} else {
			s.frame = region + uint32(i)
		}
		s.tenant = uint8(pick(g.tcdf, r.Float64()))
		s.json = r.Float64() < g.w.jsonShare
	}
	return out
}

// arrivals returns Poisson arrival offsets at rate per second over dur.
func (g *generator) arrivals(stream uint64, rate float64, dur time.Duration) []time.Duration {
	r := g.rng(stream)
	var out []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

func taskOf(frame uint32) string { return tasks[frame%uint32(len(tasks))].Name }

// image renders a frame: its task's base scene with the frame index written
// into the low bits of a row of pixels.
func (g *generator) image(frame uint32) *tensor.Tensor {
	nt := uint32(len(tasks))
	base := g.bases[frame%nt][(frame/nt)%basesPerTsk]
	img := tensor.New(3, imgSize, imgSize)
	copy(img.Data, base.Data)
	for k := 0; k < perturbBits; k++ {
		if frame>>k&1 == 1 {
			img.Data[k] += 1.0 / 64
		}
	}
	return img
}

// bodyCache holds bodies encoded ahead of a phase, so senders do not spend
// the phase's time encoding them; a body not in it is encoded on demand. It
// is read-only once filled.
type bodyCache struct {
	gen *generator
	m   map[reqSpec][]byte
}

// bodyKey drops the tenant: it travels in a header, not in the body.
func bodyKey(s reqSpec) reqSpec { return reqSpec{frame: s.frame, json: s.json} }

func newBodyCache(gen *generator, specs []reqSpec) bodyCache {
	c := bodyCache{gen: gen, m: map[reqSpec][]byte{}}
	for _, s := range specs {
		if k := bodyKey(s); c.m[k] == nil {
			c.m[k] = gen.body(k)
		}
	}
	return c
}

func (c bodyCache) get(s reqSpec) []byte {
	if b, ok := c.m[bodyKey(s)]; ok {
		return b
	}
	return c.gen.body(s)
}

// body encodes a request body: a binary frame, or the JSON image request
// with each float32 in the shortest text that parses back to it.
// The tenant travels in the X-Itask-Tenant header, so a body depends only on
// its frame and encoding.
func (g *generator) body(s reqSpec) []byte {
	img := g.image(s.frame)
	task := taskOf(s.frame)
	if !s.json {
		return wire.AppendFrame(nil, task, "", 0, [3]int{3, imgSize, imgSize}, img.Data)
	}
	b := make([]byte, 0, 48+12*len(img.Data))
	b = append(b, `{"task":"`...)
	b = append(b, task...)
	b = append(b, `","image":{"shape":[3,32,32],"data":[`...)
	for i, v := range img.Data {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, float64(v), 'g', -1, 32)
	}
	return append(b, "]}}"...)
}
