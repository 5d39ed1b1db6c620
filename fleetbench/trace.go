package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"itask"
	"itask/internal/gateway"
	"itask/internal/rcache"
	"itask/internal/serve"
	"itask/internal/tensor"
	"itask/internal/wire"
)

// layerSumTolerance bounds how far the sum of the blocking-path layers'
// median self times may sit from the traced end-to-end median, as a share
// of the latter. BENCHMARK.json states the same figure.
const layerSumTolerance = 0.25

// span is one timed call into a layer. Times are offsets from the tracer's
// start; parent is the index of the enclosing span, -1 for a root.
type span struct {
	name       string
	req        int32
	parent     int32
	start, end time.Duration
}

// batchStat is one Backend.DetectBatch call.
type batchStat struct {
	lane string
	size int
	dur  time.Duration
}

// tracer keeps spans in memory for the length of a traced run.
type tracer struct {
	t0        time.Time
	mu        sync.Mutex
	spans     []span
	serveSpan map[int32]int32 // request -> its current Server.Detect span
	queued    map[int32]time.Duration
	batches   []batchStat
	owner     sync.Map // *tensor.Tensor -> request id, while the request runs
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), serveSpan: map[int32]int32{}, queued: map[int32]time.Duration{}}
}

func (t *tracer) now() time.Duration { return time.Since(t.t0) }

func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans, t.batches = nil, nil
	clear(t.serveSpan)
	clear(t.queued)
}

func (t *tracer) begin(name string, req, parent int32) int32 {
	s := span{name: name, req: req, parent: parent, start: t.now(), end: -1}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	e := t.now()
	t.mu.Lock()
	t.spans[i].end = e
	t.mu.Unlock()
}

// pipelineBackend is every interface the pipeline's serve backend
// implements; the timing decorator must forward them all, or the server
// would run without the optional behaviours it detects by type assertion.
type pipelineBackend interface {
	serve.Backend
	serve.FallbackRouter
	serve.VariantEvicter
	serve.ImageValidator
	serve.CacheStatser
	serve.VariantHealthSink
	serve.RegistryStatser
	serve.RetirementNotifier
	serve.RouteEpocher
	serve.PayloadSizer
}

// timedBackend records a span per batch, attributed to every request whose
// image rode in it.
type timedBackend struct {
	pipelineBackend
	t *tracer
}

func (b timedBackend) DetectBatch(variant, task string, imgs []*tensor.Tensor) ([]any, string, error) {
	start := b.t.now()
	payloads, model, err := b.pipelineBackend.DetectBatch(variant, task, imgs)
	end := b.t.now()
	b.t.mu.Lock()
	defer b.t.mu.Unlock()
	b.t.batches = append(b.t.batches, batchStat{lane: lane(variant), size: len(imgs), dur: end - start})
	for _, img := range imgs {
		if v, ok := b.t.owner.Load(img); ok {
			req := v.(int32)
			if parent, ok := b.t.serveSpan[req]; ok {
				b.t.spans = append(b.t.spans, span{name: "Backend.DetectBatch", req: req, parent: parent, start: start, end: end})
			}
		}
	}
	return payloads, model, err
}

// traceCtx rides the context from the benchmark's Gateway.Detect call to
// the node the gateway picks; parent is set just before the call.
type traceCtx struct{ req, parent int32 }

type traceKey struct{}

// tracedNode wraps a shard's gateway.ServeNode with a Server.Detect span.
type tracedNode struct {
	*gateway.ServeNode
	t *tracer
}

func (n tracedNode) Detect(ctx context.Context, req serve.Request) (serve.Result, error) {
	tc := ctx.Value(traceKey{}).(*traceCtx)
	s := n.t.begin("Server.Detect", tc.req, tc.parent)
	n.t.mu.Lock()
	n.t.serveSpan[tc.req] = s
	n.t.mu.Unlock()
	res, err := n.ServeNode.Detect(ctx, req)
	n.t.end(s)
	if err == nil {
		n.t.mu.Lock()
		n.t.queued[tc.req] = res.Queued
		n.t.mu.Unlock()
	}
	return res, err
}

// serveConfig is itask-serve's configuration at its default flags.
func serveConfig() serve.Config {
	cfg := serve.DefaultConfig()
	cfg.QueueCap = 256
	cfg.CacheBytes = 32 << 20
	cfg.CacheTTL = time.Minute
	cfg.Coalesce = true
	cfg.HotThreshold = 64
	cfg.HotBytes = 4 << 20
	return cfg
}

// tracedRun is the in-process replay of a workload.
type tracedRun struct {
	t      *tracer
	gw     *gateway.Gateway
	gen    *generator
	bodies bodyCache
	pipes  []*itask.Pipeline
	next   atomic.Int32
	recs   []record
	ok     []bool // per request id: answered without error
}

// runTraced builds the fleet's stack in-process from public constructors —
// per shard itask.New on the checkpoint, ServeBackend wrapped in the timing
// decorator, serve.New and gateway.NewServeNode, all behind one
// gateway.New — and replays the workload's open-loop schedule through it.
func runTraced(ctx context.Context, o options, gen *generator, ckpt string) (*tracedRun, error) {
	tr := &tracedRun{t: newTracer(), gen: gen, bodies: newBodyCache(gen, nil)}
	gcfg := gateway.DefaultConfig()
	gcfg.BarrierPoll = 50 * time.Millisecond
	g, err := gateway.New(gcfg)
	if err != nil {
		return nil, err
	}
	defer g.Close()
	tr.gw = g
	var servers []*serve.Server
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, s := range servers {
			_ = s.Shutdown(sctx)
		}
	}()
	for i := 0; i < shardCount; i++ {
		pipe, err := newPipeline(ckpt)
		if err != nil {
			return nil, err
		}
		be, ok := pipe.ServeBackend().(pipelineBackend)
		if !ok {
			return nil, fmt.Errorf("the pipeline's serve backend no longer implements every interface the timing decorator forwards")
		}
		srv, err := serve.New(timedBackend{pipelineBackend: be, t: tr.t}, serveConfig())
		if err != nil {
			return nil, err
		}
		servers = append(servers, srv)
		node, err := gateway.NewServeNode(fmt.Sprintf("shard%d", i), srv, pipe.Registry())
		if err != nil {
			return nil, err
		}
		if err := g.AddNode(tracedNode{ServeNode: node, t: tr.t}); err != nil {
			return nil, err
		}
		tr.pipes = append(tr.pipes, pipe)
	}

	w := o.workload
	dur := o.openDuration()
	arrivals := gen.arrivals(streamArrivals, w.rate, dur)
	specs := gen.specs(streamOpen, len(arrivals), regionOpen)
	warm := gen.specs(streamWarm, 1<<16, regionWarm)
	closedLoop(ctx, time.Now(), warm, runtime.NumCPU(), warmDuration, tr.send)
	tr.bodies = newBodyCache(gen, specs)
	tr.t.reset() // keep only the measured replay's spans
	tr.next.Store(0)
	tr.ok = make([]bool, len(arrivals))

	var stop chan struct{}
	var reloads sync.WaitGroup
	if w.reload {
		// The socket run's period: one reload per window.
		stop = make(chan struct{})
		reloads.Add(1)
		go func() {
			defer reloads.Done()
			tick := time.NewTicker(dur / phaseWindows)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				for _, p := range tr.pipes {
					_ = loadModels(p, ckpt) // a failed publish leaves the old version serving
				}
			}
		}()
	}
	tr.recs, _ = openLoop(ctx, time.Now(), specs, arrivals, runtime.NumCPU(), tr.send)
	if stop != nil {
		close(stop)
		reloads.Wait()
	}
	return tr, tr.t.write(filepath.Join(o.work, "spans.jsonl"))
}

// write saves the spans, one JSON object per line, for reading after the
// run.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		err := enc.Encode(map[string]any{
			"name": s.name, "req": s.req, "parent": s.parent,
			"start_us": s.start.Microseconds(), "end_us": s.end.Microseconds(),
		})
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// send runs one request through the in-process stack, with a span around
// each layer call. A panic anywhere below is recovered and counted as a
// failure of that request.
func (tr *tracedRun) send(ctx context.Context, rec *record, start time.Time) {
	t := tr.t
	id := tr.next.Add(1) - 1
	body := tr.bodies.get(rec.spec)
	rec.sent = time.Since(start)
	defer func() {
		if p := recover(); p != nil {
			rec.done, rec.fail = time.Since(start), classPanic
		}
	}()
	// Everything the benchmark itself needs per request is prepared before
	// the root span opens, so the span's self time is tracing alone.
	task := taskOf(rec.spec.frame)
	img := tensor.New(3, imgSize, imgSize)
	req := serve.Request{Task: task, Tenant: tr.gen.w.tenants[rec.spec.tenant], Image: img}
	t.owner.Store(img, id)
	defer t.owner.Delete(img)
	tc := &traceCtx{req: id}
	tctx := context.WithValue(ctx, traceKey{}, tc)
	root := t.begin("request", id, -1)
	if rec.spec.json {
		p := t.begin("json.Unmarshal", id, root)
		var dr struct {
			Image struct {
				Data []float32 `json:"data"`
			} `json:"image"`
		}
		err := json.Unmarshal(body, &dr)
		copy(img.Data, dr.Image.Data)
		t.end(p)
		if err != nil {
			rec.done, rec.fail = time.Since(start), classOther
			return
		}
		k := t.begin("gateway.KeyFor", id, root)
		_ = gateway.KeyFor(req)
		t.end(k)
	} else {
		p := t.begin("wire.ParseFrame", id, root)
		fr, err := wire.ParseFrame(body)
		if err == nil {
			wire.Float32s(fr.Payload, img.Data)
		}
		t.end(p)
		if err != nil {
			rec.done, rec.fail = time.Since(start), classOther
			return
		}
		k := t.begin("rcache.DigestFrame", id, root)
		_ = rcache.DigestFrame(fr.Shape[:], fr.Payload)
		t.end(k)
	}
	gs := t.begin("Gateway.Detect", id, root)
	tc.parent = gs
	res, err := tr.gw.Detect(tctx, req)
	t.end(gs)
	t.end(root)
	rec.done = time.Since(start)
	if err != nil {
		rec.fail = classOther
		if ctx.Err() != nil {
			rec.fail = classTimeout
		}
		return
	}
	dets, _ := res.Payload.([]itask.Detection)
	rec.resp = &detectResponse{
		Model: res.Model, Cached: res.Cached, Coalesced: res.Coalesced,
		QueuedUS: float64(res.Queued.Microseconds()), TotalUS: float64(res.Total.Microseconds()),
		Detections: dets,
	}
	if int(id) < len(tr.ok) {
		tr.ok[id] = true
	}
}

// metrics derives the traced per-layer metrics. Self time is a span's
// duration minus what its children cover; the blocking path is door parse,
// route key, gateway self, admission (Server.Detect self time outside the
// queue wait), queue wait and batch execution. sumOK reports whether their
// medians add up to the end-to-end median within layerSumTolerance.
func (tr *tracedRun) metrics(socketP50 float64) (v map[string]float64, sumOK bool, note string) {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	type reqTimes struct {
		e2e, parse, key, gw, serveDur, exec time.Duration
	}
	per := map[int32]*reqTimes{}
	get := func(id int32) *reqTimes {
		r := per[id]
		if r == nil {
			r = &reqTimes{}
			per[id] = r
		}
		return r
	}
	for _, s := range tr.t.spans {
		if s.req < 0 || int(s.req) >= len(tr.ok) || !tr.ok[s.req] || s.end < 0 {
			continue
		}
		r, d := get(s.req), s.end-s.start
		switch s.name {
		case "request":
			r.e2e = d
		case "wire.ParseFrame", "json.Unmarshal":
			r.parse = d
		case "rcache.DigestFrame", "gateway.KeyFor":
			r.key = d
		case "Gateway.Detect":
			r.gw = d
		case "Server.Detect":
			r.serveDur += d
		case "Backend.DetectBatch":
			r.exec += d
		}
	}
	var e2e, parse, key, gwSelf, admit, queue, exec []float64
	for id, r := range per {
		q := tr.t.queued[id]
		e2e = append(e2e, us(r.e2e))
		parse = append(parse, us(r.parse))
		key = append(key, us(r.key))
		gwSelf = append(gwSelf, us(r.gw-r.serveDur))
		admit = append(admit, max(0, us(r.serveDur-q-r.exec)))
		queue = append(queue, us(q))
		exec = append(exec, us(r.exec))
	}
	v = map[string]float64{
		"door.parse_us":        median(parse),
		"gateway.route_key_us": median(key),
		"gateway.self_us":      median(gwSelf),
		"serve.admit_us":       median(admit),
		"trace.queue_wait_us":  median(queue),
		"trace.exec_us":        median(exec),
	}
	sum := 0.0
	for _, k := range []string{"door.parse_us", "gateway.route_key_us", "gateway.self_us", "serve.admit_us", "trace.queue_wait_us", "trace.exec_us"} {
		sum += v[k]
	}
	e2eMed := median(e2e)
	v["trace.layer_sum_ratio"] = ratio(sum, e2eMed)
	sumOK = len(e2e) > 0 && v["trace.layer_sum_ratio"] >= 1-layerSumTolerance && v["trace.layer_sum_ratio"] <= 1+layerSumTolerance

	batchMS := map[string][]float64{}
	perImage := map[string][]float64{}
	images := 0
	for _, b := range tr.t.batches {
		batchMS[b.lane] = append(batchMS[b.lane], float64(b.dur)/float64(time.Millisecond))
		perImage[b.lane] = append(perImage[b.lane], us(b.dur)/float64(b.size))
		images += b.size
	}
	for _, l := range []string{"quant", "student"} {
		v["exec.batch_ms."+l] = median(batchMS[l])
		v["exec.per_image_us."+l] = median(perImage[l])
	}
	v["exec.batches"] = float64(len(tr.t.batches))
	v["exec.images"] = float64(images)

	failed := 0
	for i := range tr.recs {
		if !tr.recs[i].ok() {
			failed++
		}
	}
	v["trace.p50_ms"] = median(answeredMS(tr.recs))
	v["trace.socket_gap_ms"] = socketP50 - v["trace.p50_ms"]
	v["trace.requests"] = float64(len(tr.recs))
	v["trace.fail_ratio"] = ratio(float64(failed), float64(len(tr.recs)))
	verdict := "holds"
	if !sumOK {
		verdict = "FAILED"
	}
	note = fmt.Sprintf("traced layer sum: parse %.1f + route key %.1f + gateway self %.1f + admission %.1f + queue wait %.1f + exec %.1f = %.1f us vs traced end-to-end median %.1f us over %d answered requests (ratio %.3f, tolerance ±%.2f: %s); traced p50 %.3f ms vs socket p50 %.3f ms",
		v["door.parse_us"], v["gateway.route_key_us"], v["gateway.self_us"], v["serve.admit_us"], v["trace.queue_wait_us"], v["trace.exec_us"],
		sum, e2eMed, len(e2e), v["trace.layer_sum_ratio"], layerSumTolerance, verdict, v["trace.p50_ms"], socketP50)
	return v, sumOK, note
}
