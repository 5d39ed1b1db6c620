package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"itask"
	"itask/internal/wire"
)

// Outcome classes of a request that did not return 200.
const (
	classTransport = "transport"
	classTimeout   = "timeout"
	classOther     = "other"
	classPanic     = "panic" // in-process traced calls only
)

// failClasses lists every class a failure is counted under, in report order.
var failClasses = []string{"502", "429", "503", "504", classTransport, classTimeout, classOther, classPanic}

func statusClass(code int) string {
	switch code {
	case 502, 429, 503, 504:
		return strconv.Itoa(code)
	}
	return classOther
}

// detectResponse is the shard's /v1/detect answer, relayed by the gateway.
type detectResponse struct {
	Model      string            `json:"model"`
	QueuedUS   float64           `json:"queued_us"`
	TotalUS    float64           `json:"total_us"`
	Cached     bool              `json:"cached"`
	Coalesced  bool              `json:"coalesced"`
	Detections []itask.Detection `json:"detections"`
}

// record is one request's outcome. Times are offsets from the phase start.
type record struct {
	spec            reqSpec
	due, sent, done time.Duration
	// fail is empty for a 200 response, else its failure class.
	fail     string
	shard    string
	attempts int
	hot      bool
	body     []byte          // 200 response body, parsed after the phase
	resp     *detectResponse // set once parsed (or directly, in-process)
}

func (r *record) ok() bool { return r.fail == "" }

// sendFunc performs one request under ctx and fills in rec's outcome;
// record times are offsets from start.
type sendFunc func(ctx context.Context, rec *record, start time.Time)

// clientTimeout bounds every request, so a hang shows as a failure and
// never stalls a phase.
const clientTimeout = 2 * time.Second

// httpSender posts generated bodies to the gateway over a transport capped
// at conns connections.
type httpSender struct {
	hc      *http.Client
	gw      string
	tenants []string
	bodies  bodyCache
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

func (s *httpSender) send(ctx context.Context, rec *record, start time.Time) {
	body := s.bodies.get(rec.spec)
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, s.gw+"/v1/detect", bytes.NewReader(body))
	if rec.spec.json {
		req.Header.Set("Content-Type", "application/json")
	} else {
		req.Header.Set("Content-Type", wire.ContentType)
	}
	req.Header.Set("X-Itask-Tenant", s.tenants[rec.spec.tenant])
	rec.sent = time.Since(start)
	resp, err := s.hc.Do(req)
	if err != nil {
		rec.done = time.Since(start)
		rec.fail = classTransport
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			rec.fail = classTimeout
		}
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.done = time.Since(start)
	rec.shard = resp.Header.Get("X-Itask-Shard")
	rec.attempts, _ = strconv.Atoi(resp.Header.Get("X-Itask-Attempts"))
	rec.hot = resp.Header.Get("X-Itask-Hot") == "1"
	switch {
	case err != nil && errors.Is(ctx.Err(), context.DeadlineExceeded):
		rec.fail = classTimeout
	case err != nil:
		rec.fail = classTransport
	case resp.StatusCode != http.StatusOK:
		rec.fail = statusClass(resp.StatusCode)
	default:
		rec.body = data
	}
}

// parse decodes every 200 body; an undecodable one is a failed check.
func parse(recs []record) error {
	for i := range recs {
		r := &recs[i]
		if !r.ok() || r.resp != nil {
			continue
		}
		r.resp = new(detectResponse)
		if err := json.Unmarshal(r.body, r.resp); err != nil {
			return err
		}
		r.body = nil
	}
	return nil
}

// openLoop sends specs[j] when arrivals[j] falls due, on at most workers
// requests in flight. Each request's deadline and latency count from when it
// was due, so a stall shows in every request queued behind it. lag receives
// how late the generator handed each request over.
func openLoop(ctx context.Context, start time.Time, specs []reqSpec, arrivals []time.Duration, workers int,
	send sendFunc) (recs []record, lag []float64) {
	recs = make([]record, len(arrivals))
	lag = make([]float64, len(arrivals))
	// Sized to the whole schedule so the generator never blocks on a busy
	// fleet; the backlog waits here and its wait is charged to latency.
	queue := make(chan int, len(arrivals))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				rec := &recs[j]
				rctx, cancel := context.WithDeadline(ctx, start.Add(rec.due+clientTimeout))
				if rctx.Err() != nil {
					rec.sent, rec.done, rec.fail = time.Since(start), time.Since(start), classTimeout
				} else {
					send(rctx, rec, start)
				}
				cancel()
			}
		}()
	}
	for j, due := range arrivals {
		recs[j].spec, recs[j].due = specs[j], due
		if d := time.Until(start.Add(due)); d > 0 {
			time.Sleep(d)
		}
		lag[j] = float64(time.Since(start)-due) / float64(time.Millisecond)
		queue <- j
	}
	close(queue)
	wg.Wait()
	return recs, lag
}

// closedLoop runs callers that each send their next request as soon as the
// previous one returns, until dur has passed, drawing specs in order. It
// returns the records and the phase's wall time.
func closedLoop(ctx context.Context, start time.Time, specs []reqSpec, callers int, dur time.Duration,
	send sendFunc) ([]record, time.Duration) {
	var next atomic.Int64
	var wg sync.WaitGroup
	perCaller := make([][]record, callers)
	for c := range perCaller {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				j := int(next.Add(1) - 1)
				if j >= len(specs) {
					return
				}
				rec := record{spec: specs[j], due: time.Since(start)}
				rctx, cancel := context.WithTimeout(ctx, clientTimeout)
				send(rctx, &rec, start)
				cancel()
				perCaller[c] = append(perCaller[c], rec)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var recs []record
	for _, rs := range perCaller {
		recs = append(recs, rs...)
	}
	return recs, elapsed
}

// reloadEvent is one fleet-wide reload posted during the measured phases.
type reloadEvent struct {
	at      time.Time // when the reload response arrived
	latency time.Duration
	err     error
}

// reloadAfter posts one POST /v1/models/reload to the gateway after delay
// and delivers its outcome.
func reloadAfter(hc *http.Client, gw string, delay time.Duration) <-chan reloadEvent {
	out := make(chan reloadEvent, 1)
	go func() {
		time.Sleep(delay)
		begin := time.Now()
		resp, err := hc.Post(gw+"/v1/models/reload", "application/json", nil)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = errors.New("reload: HTTP " + resp.Status)
			}
		}
		out <- reloadEvent{at: time.Now(), latency: time.Since(begin), err: err}
	}()
	return out
}
