// Command fleetbench is the repository's end-to-end benchmark. It builds a
// fleet on loopback — one itask-gateway in front of two itask-serve shards,
// all on default flags — serving a checkpoint it trains itself, drives one
// workload through it and checks every answer against an in-process
// single-image reference on the same checkpoint.
//
//	bash fleetbench/run.sh --workload unique_bin --seed 1 --seconds 45 --trace 0
//
// run.sh builds this command and the three servers from the checkout and
// runs it from the checkout's root. Each run:
//
//  1. trains the checkpoint (fixed seed) and copies it without the triage
//     and harvest students, so those tasks fall through to the quantized
//     generalist while patrol and inspect keep their distilled students;
//  2. launches the fleet several times, timing launch until every shard has
//     answered a detection through the gateway (setup_s is the median), and
//     keeps the last fleet;
//  3. warms it up, untimed;
//  4. runs an open-loop phase of seeded Poisson arrivals at the workload's
//     rate, timing each request from when it was due, and a closed-loop
//     phase with one caller per CPU, each cut into windows that alternate
//     between the two;
//  5. scrapes /metricsz on every process and /proc for their CPU and memory.
//
// With --trace 1 it then replays the workload in-process against the same
// stack built from public constructors, with spans around each layer, and
// prints the per-layer metrics instead of the end-to-end ones. The last
// line of standard output is always one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit code is non-zero
// when a run fails or its output check does.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"itask/internal/gateway"
	"itask/internal/serve"
)

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// endToEnd lists the metrics a user of the fleet sees, in report order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p95_ms", "ms"},
	{"throughput_rps", "req/s"},
	{"success_ratio", "ratio"},
	{"match_ratio", "ratio"},
	{"cpu_ms_per_req", "ms"},
	{"rss_mb", "MiB"},
}

// setupRuns is how many fleets a run launches to time set-up.
const setupRuns = 15

type options struct {
	workload workload
	seed     uint64
	seconds  int
	trace    bool
	bin      string // directory holding itask-train, itask-serve, itask-gateway
	work     string // scratch directory for checkpoints and logs
}

// openDuration is the open-loop phase's share of the measured seconds; the
// closed loop gets the rest. The tail percentile needs the samples more than
// the closed loop's throughput and CPU figures do, which hold steady on
// fewer.
func (o options) openDuration() time.Duration {
	return time.Duration(o.seconds) * time.Second * 2 / 3
}

type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	notes     []string
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: unique_bin, zipf_bin, mixed_publish or mixed_uniform")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 45, "measured seconds, split between the open- and closed-loop phases")
		trace   = flag.Int("trace", 0, "1: also run the traced in-process replay and report per-layer metrics")
		bin     = flag.String("bin", ".bench_build/bin", "directory with the built itask-train, itask-serve and itask-gateway")
		work    = flag.String("work", ".bench_build/run", "scratch directory for the checkpoint and process logs")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 2 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "fleetbench: need --workload unique_bin|zipf_bin|mixed_publish|mixed_uniform, --seconds >= 2, --trace 0|1")
		os.Exit(2)
	}
	opts := options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, bin: *bin, work: *work}
	res, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	out := map[string]any{}
	for _, m := range res.metrics {
		fmt.Printf("%-34s %14.6g %s\n", m.name, m.value, m.unit)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.correct {
		os.Exit(1)
	}
}

// socketRun is everything measured on the fleet over real sockets.
type socketRun struct {
	w              workload
	setups         []float64
	open, closed   []record
	lag            []float64
	openWins       []window
	closedWins     []window
	reloads        []reloadEvent
	gw0, gw1       gateway.Snapshot
	shard0, shard1 []serve.Snapshot
	procStart      map[string]procStat // when the measured phases start
	procEnd        map[string]procStat // when they end
}

func run(o options) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	logDir := filepath.Join(o.work, "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	ckpt, sum, err := prepareCheckpoint(o.bin, o.work)
	if err != nil {
		return nil, err
	}
	gen := newGenerator(o.workload, o.seed)
	pipe, err := newPipeline(ckpt)
	if err != nil {
		return nil, err
	}
	res := &result{correct: true}
	res.notes = append(res.notes, provenance(o, sum))

	sr, err := runSocket(ctx, o, gen, ckpt, logDir)
	if err != nil {
		return nil, err
	}
	for k := range sr.openWins {
		for _, win := range []window{sr.openWins[k], sr.closedWins[k]} {
			if err := parse(win.recs); err != nil {
				return nil, fmt.Errorf("undecodable 200 response: %w", err)
			}
		}
		sr.open = append(sr.open, sr.openWins[k].recs...)
		sr.closed = append(sr.closed, sr.closedWins[k].recs...)
	}
	recs := append(append([]record{}, sr.open...), sr.closed...)
	ref := newReference(pipe, gen)
	chk, err := checkRecords(ref, recs)
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed = len(recs), len(recs)-countOK(recs)
	res.notes = append(res.notes, chk.notes("socket")...)
	res.notes = append(res.notes, failureNote("open-loop", sr.open), failureNote("closed-loop", sr.closed),
		failureNote("all", recs), tailNote("open-loop", answeredMS(sr.open)))
	if !chk.pass() {
		res.correct = false
	}
	e2e, note, err := endToEndMetrics(sr, recs, chk)
	if err != nil {
		return nil, err
	}
	res.notes = append(res.notes, note)
	if !o.trace {
		res.metrics = e2e
		return res, nil
	}
	layers := socketLayers(sr, recs, chk)
	tr, err := runTraced(ctx, o, gen, ckpt)
	if err != nil {
		return nil, err
	}
	tchk, err := checkRecords(ref, tr.recs)
	if err != nil {
		return nil, err
	}
	res.notes = append(res.notes, tchk.notes("traced")...)
	if !tchk.pass() {
		res.correct = false
	}
	traced, sumOK, note := tr.metrics(valueOf(e2e, "p50_ms"))
	res.notes = append(res.notes, note)
	if !sumOK {
		res.correct = false
	}
	for k, x := range traced {
		layers[k] = x
	}
	for _, m := range perLayer {
		x, ok := layers[m.name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("per-layer metric %s has no value", m.name)
		}
		res.metrics = append(res.metrics, metric{name: m.name, unit: m.unit, value: x})
	}
	return res, nil
}

func valueOf(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return math.NaN()
}

// runSocket times fleet set-up, then drives the workload through the last
// fleet launched.
func runSocket(ctx context.Context, o options, gen *generator, ckpt, logDir string) (*socketRun, error) {
	probe := func(i int) []byte { return gen.body(reqSpec{frame: regionProbe + uint32(i)}) }
	sr := &socketRun{w: o.workload}
	var f *fleet
	for i := 0; i < setupRuns; i++ {
		sctx, cancel := context.WithTimeout(ctx, 60*time.Second)
		fl, d, err := startFleet(sctx, o.bin, ckpt, logDir, probe)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("fleet set-up: %w", err)
		}
		sr.setups = append(sr.setups, d.Seconds())
		if i < setupRuns-1 {
			fl.stop()
		} else {
			f = fl
		}
	}
	defer f.stop()

	conns := runtime.NumCPU()
	hc := newHTTPClient(conns)
	defer hc.CloseIdleConnections()
	snd := &httpSender{hc: hc, gw: f.gw, tenants: o.workload.tenants, bodies: newBodyCache(gen, nil)}
	w := o.workload
	openDur := o.openDuration()
	closedDur := time.Duration(o.seconds)*time.Second - openDur

	warm := gen.specs(streamWarm, 1<<16, regionWarm)
	closedLoop(ctx, time.Now(), warm, conns, warmDuration, snd.send)

	arrivals := gen.arrivals(streamArrivals, w.rate, openDur)
	openSpecs := gen.specs(streamOpen, len(arrivals), regionOpen)
	closedSpecs := gen.specs(streamClosed, int(closedDur.Seconds()*maxClosedRate), regionClosed)
	prebuild := openSpecs
	if w.universe > 0 && w.universe <= 1024 && w.jsonShare == 0 {
		// A small binary universe fits in memory whole, so the closed loop
		// spends no client CPU encoding bodies.
		prebuild = append(prebuild[:len(prebuild):len(prebuild)], closedSpecs...)
	}
	snd.bodies = newBodyCache(gen, prebuild)

	shc := &http.Client{Timeout: 5 * time.Second}
	defer shc.CloseIdleConnections()
	var err error
	if sr.gw0, sr.shard0, err = scrapeFleet(shc, f); err != nil {
		return nil, err
	}
	if sr.procStart, err = f.procStats(); err != nil {
		return nil, err
	}
	// withReload runs one window; on a publishing workload a fleet reload
	// goes out halfway through it, so every window holds exactly one.
	withReload := func(length time.Duration, run func()) {
		var ev <-chan reloadEvent
		if w.reload {
			ev = reloadAfter(hc, f.gw, length/2)
		}
		run()
		if ev != nil {
			sr.reloads = append(sr.reloads, <-ev)
		}
	}
	// The phases alternate window by window, so both sample the whole run
	// rather than one half of it each.
	openWin, closedWin := openDur/phaseWindows, closedDur/phaseWindows
	for k := 0; k < phaseWindows; k++ {
		from := time.Duration(k) * openWin
		lo := sort.Search(len(arrivals), func(i int) bool { return arrivals[i] >= from })
		hi := sort.Search(len(arrivals), func(i int) bool { return arrivals[i] >= from+openWin })
		seg := make([]time.Duration, hi-lo)
		for i := range seg {
			seg[i] = arrivals[lo+i] - from
		}
		win := window{start: time.Now()}
		withReload(openWin, func() {
			var lag []float64
			win.recs, lag = openLoop(ctx, win.start, openSpecs[lo:hi], seg, conns, snd.send)
			sr.lag = append(sr.lag, lag...)
		})
		sr.openWins = append(sr.openWins, win)

		before, err := f.procStats()
		if err != nil {
			return nil, err
		}
		win = window{start: time.Now()}
		withReload(closedWin, func() {
			win.recs, win.elapsed = closedLoop(ctx, win.start, closedSpecs, conns, closedWin, snd.send)
		})
		closedSpecs = closedSpecs[len(win.recs):]
		if sr.procEnd, err = f.procStats(); err != nil {
			return nil, err
		}
		for name, st := range sr.procEnd {
			win.cpu += st.cpu - before[name].cpu
		}
		sr.closedWins = append(sr.closedWins, win)
	}
	if sr.gw1, sr.shard1, err = scrapeFleet(shc, f); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("run overran its deadline: %w", err)
	}
	return sr, nil
}

// Generator streams and phase sizing.
const (
	streamArrivals = iota + 1
	streamOpen
	streamClosed
	streamWarm

	warmDuration = time.Second
	// maxClosedRate sizes the closed-loop request list, requests/second.
	maxClosedRate = 10000
	// phaseWindows is how many equal windows each phase is cut into. A
	// windowed figure is the median over the windows, so one burst of
	// interference from outside the fleet moves one window, not the result.
	// On a 2-vCPU host, the median of ten windows' p99 spread about
	// two-thirds as much from run to run as the median of five longer
	// windows' or the p99 of the whole phase; the same holds for p95.
	phaseWindows = 10
)

// window is one slice of a phase. Record times are offsets from start;
// closed-loop windows also carry their wall time and the fleet's
// utime+stime over it.
type window struct {
	start   time.Time
	recs    []record
	elapsed time.Duration
	cpu     time.Duration
}

func scrapeFleet(hc *http.Client, f *fleet) (gateway.Snapshot, []serve.Snapshot, error) {
	var gw gateway.Snapshot
	if err := scrape(hc, f.gw, &gw); err != nil {
		return gw, nil, err
	}
	shards := make([]serve.Snapshot, len(f.shards))
	for i, s := range f.shards {
		if err := scrape(hc, s, &shards[i]); err != nil {
			return gw, nil, err
		}
	}
	return gw, shards, nil
}

// answeredMS returns the latencies of the answered requests in recs, in
// milliseconds from when each was due.
//
// Failed requests are left out, and success_ratio carries them instead. A
// percentile that counted them as missing every limit would sit on the
// failures whenever their share is near its rank: the seed fails about half
// of zipf_bin's and a few percent of mixed_publish's requests, so p50 and
// p99 would flip between a latency and the client deadline from one run to
// the next.
func answeredMS(recs []record) []float64 {
	var out []float64
	for i := range recs {
		if r := &recs[i]; r.ok() {
			out = append(out, float64(r.done-r.due)/float64(time.Millisecond))
		}
	}
	return out
}

// tailNote states the highest percentile the open-loop sample supports.
func tailNote(label string, lat []float64) string {
	if p, v, ok := tail(lat); ok {
		return fmt.Sprintf("%s latency: p%g %.3f ms over %d answered requests (at least 10 beyond it)", label, p, v, len(lat))
	}
	return fmt.Sprintf("%s latency: %d answered requests, too few for any percentile with 10 beyond it", label, len(lat))
}

func countOK(recs []record) int {
	n := 0
	for i := range recs {
		if recs[i].ok() {
			n++
		}
	}
	return n
}

// windowed returns the median over windows of each window's q-quantile of
// answered latency, and the per-window values.
func windowed(wins []window, q float64) (float64, []float64) {
	var each []float64
	for _, win := range wins {
		each = append(each, quantile(answeredMS(win.recs), q))
	}
	return median(append([]float64(nil), each...)), each
}

// endToEndMetrics derives the user-visible metrics. p95_ms, throughput_rps
// and cpu_ms_per_req are medians over the phase's windows.
//
// The gated tail is p95, not p99: on a 2-vCPU host a slow spell of the
// machine swells the open loop's connection queue most at the far tail, and
// the windowed p99 spread 0.07–0.23 between ten-run sets of the same code,
// at the edge of the largest bound BENCHMARK.json may set. p99 is still
// printed on every run and reported per layer as e2e.p99_ms.
func endToEndMetrics(sr *socketRun, recs []record, chk *checkResult) ([]metric, string, error) {
	var rps, cpu []float64
	p95, p95s := windowed(sr.openWins, 0.95)
	p99, p99s := windowed(sr.openWins, 0.99)
	for _, win := range sr.closedWins {
		ok := float64(countOK(win.recs))
		rps = append(rps, ok/win.elapsed.Seconds())
		cpu = append(cpu, ratio(float64(win.cpu)/float64(time.Millisecond), ok))
	}
	var rss float64
	for _, end := range sr.procEnd {
		rss += end.hwmMB
	}
	note := fmt.Sprintf("p99_ms %.4f (median over windows, not gated); windows: p95_ms %.4g, p99_ms %.4g, throughput_rps %.4g, cpu_ms_per_req %.4g; launches: setup_s %.4g",
		p99, p95s, p99s, rps, cpu, sr.setups)
	vals := map[string]float64{
		"setup_s":        median(sr.setups),
		"p50_ms":         median(answeredMS(sr.open)),
		"p95_ms":         p95,
		"throughput_rps": median(rps),
		"success_ratio":  ratio(float64(countOK(recs)), float64(len(recs))),
		"match_ratio":    ratio(float64(chk.matched), float64(chk.checked)),
		"cpu_ms_per_req": median(cpu),
		"rss_mb":         rss,
	}
	out := make([]metric, 0, len(endToEnd))
	for _, m := range endToEnd {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, "", fmt.Errorf("%s is not a number", m.name)
		}
		out = append(out, metric{name: m.name, unit: m.unit, value: v})
	}
	return out, note, nil
}

// failureNote breaks a phase's failures down by class.
func failureNote(phase string, recs []record) string {
	counts := map[string]int{}
	failed := 0
	for i := range recs {
		if f := recs[i].fail; f != "" {
			counts[f]++
			failed++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s failures: %d of %d attempted (fail_ratio %.4f)", phase, failed, len(recs), ratio(float64(failed), float64(len(recs))))
	for _, c := range failClasses {
		if counts[c] > 0 {
			fmt.Fprintf(&b, " %s=%d", c, counts[c])
		}
	}
	return b.String()
}

func provenance(o options, ckptSum string) string {
	p := map[string]any{
		"workload":          o.workload.name,
		"seed":              o.seed,
		"offered_rate_rps":  o.workload.rate,
		"seconds":           o.seconds,
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"cpu_model":         cpuModel(),
		"go_version":        runtime.Version(),
		"commit":            commitID(),
		"checkpoint_sha256": ckptSum,
	}
	b, _ := json.Marshal(p)
	return "provenance " + string(b)
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitID names the code under test: the git commit when the checkout is a
// repository, else a digest of the module's Go sources and go.mod.
func commitID() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return fs.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
