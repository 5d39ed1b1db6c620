package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"itask/internal/wire"
)

// trainArgs fix the benchmark checkpoint: small enough to train in about a
// second, seeded so every run serves the same weights.
var trainArgs = []string{"-samples", "16", "-epochs", "3", "-seed", "1"}

// studentTasks keep their distilled students in the benchmark's checkpoint;
// the other standard tasks fall through to the quantized generalist.
var studentTasks = map[string]bool{"patrol": true, "inspect": true}

// prepareCheckpoint trains the checkpoint into work/full and copies the
// artifacts the fleet serves into work/ckpt, leaving out the students of
// tasks outside studentTasks. It returns the copy's directory and a checksum
// over its files.
func prepareCheckpoint(bin, work string) (dir, sum string, err error) {
	full := filepath.Join(work, "full")
	dir = filepath.Join(work, "ckpt")
	for _, d := range []string{full, dir} {
		if err := os.RemoveAll(d); err != nil {
			return "", "", err
		}
	}
	cmd := exec.Command(filepath.Join(bin, "itask-train"), append([]string{"-out", full}, trainArgs...)...)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", "", fmt.Errorf("itask-train: %v\n%s", err, out)
	}
	h := sha256.New()
	err = filepath.WalkDir(full, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(full, path)
		parts := strings.Split(rel, string(filepath.Separator))
		if len(parts) < 2 {
			return nil // the flat legacy files beside the registry layout
		}
		if task, ok := strings.CutSuffix(parts[0], "-student"); ok && !studentTasks[task] {
			return fs.SkipDir
		}
		if d.IsDir() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
		dst := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
	return dir, hex.EncodeToString(h.Sum(nil))[:16], err
}

type proc struct {
	name string
	cmd  *exec.Cmd
	done chan struct{}
}

// fleet is one gateway and its shards, each a child process.
type fleet struct {
	gw     string   // gateway base URL
	shards []string // shard base URLs, also their gateway node ids
	procs  []*proc  // shards first, gateway last
}

const shardCount = 2

// startFleet launches the shards and the gateway on loopback with default
// flags apart from addresses and the model directory, and returns once every
// shard has answered a detection through the gateway. probe(i) is the i-th
// binary frame it may send for that. The returned duration runs from launch
// to that point.
func startFleet(ctx context.Context, bin, ckpt, logDir string, probe func(i int) []byte) (*fleet, time.Duration, error) {
	ports, err := freePorts(shardCount + 1)
	if err != nil {
		return nil, 0, err
	}
	f := &fleet{gw: fmt.Sprintf("http://127.0.0.1:%d", ports[shardCount])}
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()

	start := time.Now()
	for i := 0; i < shardCount; i++ {
		addr := fmt.Sprintf("127.0.0.1:%d", ports[i])
		f.shards = append(f.shards, "http://"+addr)
		if err := f.spawn(bin, logDir, "itask-serve", fmt.Sprintf("shard%d", i), "-addr", addr, "-models", ckpt); err != nil {
			f.stop()
			return nil, 0, err
		}
	}
	for _, s := range f.shards {
		if err := waitHealthy(ctx, hc, s); err != nil {
			f.stop()
			return nil, 0, err
		}
	}
	if err := f.spawn(bin, logDir, "itask-gateway", "gateway",
		"-addr", strings.TrimPrefix(f.gw, "http://"), "-backends", strings.Join(f.shards, ",")); err != nil {
		f.stop()
		return nil, 0, err
	}
	if err := waitHealthy(ctx, hc, f.gw); err != nil {
		f.stop()
		return nil, 0, err
	}
	seen := map[string]bool{}
	for i := 0; len(seen) < shardCount; i++ {
		if err := ctx.Err(); err != nil {
			f.stop()
			return nil, 0, fmt.Errorf("fleet never answered through every shard: %w", err)
		}
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, f.gw+"/v1/detect", bytes.NewReader(probe(i)))
		req.Header.Set("Content-Type", wire.ContentType)
		resp, err := hc.Do(req)
		if err != nil {
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			seen[resp.Header.Get("X-Itask-Shard")] = true
		}
	}
	return f, time.Since(start), nil
}

func (f *fleet) spawn(bin, logDir, prog, name string, args ...string) error {
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return err
	}
	cmd := exec.Command(filepath.Join(bin, prog), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A benchmark killed before it can stop the fleet takes the fleet down
	// with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("start %s: %w", prog, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	f.procs = append(f.procs, p)
	return nil
}

// stop terminates every process (SIGTERM, then SIGKILL after a grace
// period) and waits for each to exit.
func (f *fleet) stop() {
	for i := len(f.procs) - 1; i >= 0; i-- {
		_ = f.procs[i].cmd.Process.Signal(syscall.SIGTERM)
	}
	grace := time.After(5 * time.Second)
	for _, p := range f.procs {
		select {
		case <-p.done:
		case <-grace:
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
	f.procs = nil
}

// basePort starts the port blocks fleets are placed on. The gateway names
// each shard by its URL and hashes the name onto its ring, so the same
// ports give every run the same ring and the same split of keys between
// shards; ephemeral ports would make that split vary from run to run.
const basePort = 47310

// freePorts returns the first block of n consecutive loopback ports from
// basePort that are all free now.
func freePorts(n int) ([]int, error) {
	for base := basePort; base < basePort+64*n; base += n {
		var lns []net.Listener
		for p := base; p < base+n; p++ {
			ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
			if err != nil {
				break
			}
			lns = append(lns, ln)
		}
		for _, ln := range lns {
			ln.Close()
		}
		if len(lns) == n {
			ports := make([]int, n)
			for i := range ports {
				ports[i] = base + i
			}
			return ports, nil
		}
	}
	return nil, fmt.Errorf("no %d free consecutive ports from %d", n, basePort)
}

func waitHealthy(ctx context.Context, hc *http.Client, base string) error {
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if resp, err := hc.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s never became healthy: %w", base, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// scrape decodes one process's /metricsz into v.
func scrape(hc *http.Client, base string, v any) error {
	resp, err := hc.Get(base + "/metricsz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/metricsz: HTTP %d", base, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// procStat is what /proc reports for one fleet process.
type procStat struct {
	cpu   time.Duration // utime+stime
	hwmMB float64       // peak resident set, MiB
}

// clockTick is the kernel's USER_HZ, fixed at 100 on Linux for /proc.
const clockTick = 10 * time.Millisecond

func readProc(pid int) (procStat, error) {
	var st procStat
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return st, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	rest := raw[bytes.LastIndexByte(raw, ')')+2:]
	fields := strings.Fields(string(rest))
	if len(fields) < 13 {
		return st, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseInt(fields[11], 10, 64)
	stt, _ := strconv.ParseInt(fields[12], 10, 64)
	st.cpu = time.Duration(ut+stt) * clockTick
	sf, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return st, err
	}
	defer sf.Close()
	sc := bufio.NewScanner(sf)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			st.hwmMB = kb / 1024
		}
	}
	return st, sc.Err()
}

// procStats reads every fleet process, keyed by process name.
func (f *fleet) procStats() (map[string]procStat, error) {
	out := map[string]procStat{}
	for _, p := range f.procs {
		st, err := readProc(p.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		out[p.name] = st
	}
	return out, nil
}
