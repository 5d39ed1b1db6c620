package main

import (
	"fmt"
	"math"
	"time"

	"itask/internal/serve"
)

// maxBatch is itask-serve's default -max-batch: the batch histogram has one
// bucket per size up to it.
var maxBatch = serve.DefaultConfig().MaxBatch

// perLayer lists the per-layer metrics of a traced run, in report order.
// Names under exec., trace., door.parse_us, gateway.self_us,
// gateway.route_key_us and serve.admit_us come from the in-process traced
// replay; the rest from the socket run's responses, headers, /metricsz
// deltas and /proc.
var perLayer = func() []struct{ name, unit string } {
	l := []struct{ name, unit string }{
		{"e2e.p99_ms", "ms"},
		{"load.send_lag_p99_ms", "ms"},
		{"door.remainder_p50_ms", "ms"},
		{"door.remainder_p99_ms", "ms"},
		{"door.parse_us", "us"},
		{"gateway.self_us", "us"},
		{"gateway.route_key_us", "us"},
		{"gateway.hot_routed_ratio", "ratio"},
		{"gateway.spill_ratio", "ratio"},
		{"gateway.retry_ratio", "ratio"},
		{"gateway.shard_share_max", "ratio"},
		{"serve.admit_us", "us"},
		{"serve.cache_hit_ratio", "ratio"},
		{"serve.coalesced_ratio", "ratio"},
		{"serve.replicated_hit_ratio", "ratio"},
		{"serve.rejected_ratio", "ratio"},
		{"serve.queued_p50_ms", "ms"},
		{"serve.queued_p99_ms", "ms"},
		{"serve.batch_size_mean", "count"},
	}
	for b := 1; b <= maxBatch; b++ {
		l = append(l, struct{ name, unit string }{fmt.Sprintf("serve.batch_hist.%d", b), "count"})
	}
	for _, t := range benchTenants {
		l = append(l,
			struct{ name, unit string }{"fair.p99_ms." + t, "ms"},
			struct{ name, unit string }{"fair.completed_share." + t, "ratio"},
			struct{ name, unit string }{"fair.offered_share." + t, "ratio"})
	}
	l = append(l, []struct{ name, unit string }{
		{"exec.batch_ms.quant", "ms"},
		{"exec.batch_ms.student", "ms"},
		{"exec.per_image_us.quant", "us"},
		{"exec.per_image_us.student", "us"},
		{"exec.batches", "count"},
		{"exec.images", "count"},
		{"publish.reload_ms", "ms"},
		{"publish.epochs", "count"},
		{"serve.miss_ratio_after_publish", "ratio"},
		{"model.exact_ratio.quant", "ratio"},
		{"model.exact_ratio.student", "ratio"},
		{"proc.cpu_s.gateway", "s"},
		{"proc.cpu_s.shard", "s"},
		{"proc.rss_mb.gateway", "MiB"},
		{"proc.rss_mb.shard", "MiB"},
		{"fail_ratio", "ratio"},
	}...)
	for _, c := range failClasses {
		l = append(l, struct{ name, unit string }{"fail." + c, "ratio"})
	}
	return append(l, []struct{ name, unit string }{
		{"trace.p50_ms", "ms"},
		{"trace.queue_wait_us", "us"},
		{"trace.exec_us", "us"},
		{"trace.layer_sum_ratio", "ratio"},
		{"trace.socket_gap_ms", "ms"},
		{"trace.requests", "count"},
		{"trace.fail_ratio", "ratio"},
	}...)
}()

// afterPublish is the window after a fleet reload in which executed (not
// cached, not coalesced) answers count as misses caused by the publish.
const afterPublish = 250 * time.Millisecond

// socketLayers computes the per-layer metrics the socket run measures.
func socketLayers(sr *socketRun, recs []record, chk *checkResult) map[string]float64 {
	v := map[string]float64{}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

	v["e2e.p99_ms"], _ = windowed(sr.openWins, 0.99)
	v["load.send_lag_p99_ms"] = quantile(sr.lag, 0.99)

	var remainder, queued []float64
	answered, hot, retried, ok, cached, coalesced := 0, 0, 0, 0, 0, 0
	perShard := map[string]int{}
	for i := range recs {
		r := &recs[i]
		if r.shard != "" {
			answered++
			perShard[r.shard]++
			if r.hot {
				hot++
			}
			if r.attempts > 1 {
				retried++
			}
		}
		if !r.ok() {
			continue
		}
		ok++
		remainder = append(remainder, ms(r.done-r.sent)-r.resp.TotalUS/1000)
		switch {
		case r.resp.Cached:
			cached++
		case r.resp.Coalesced:
			coalesced++
		default:
			queued = append(queued, r.resp.QueuedUS/1000)
		}
	}
	v["door.remainder_p50_ms"] = quantile(remainder, 0.5)
	v["door.remainder_p99_ms"] = quantile(remainder, 0.99)
	v["gateway.hot_routed_ratio"] = ratio(float64(hot), float64(answered))
	shareMax := 0.0
	for _, n := range perShard {
		shareMax = math.Max(shareMax, ratio(float64(n), float64(answered)))
	}
	v["gateway.shard_share_max"] = shareMax
	routed := float64(sr.gw1.Routed - sr.gw0.Routed)
	v["gateway.spill_ratio"] = ratio(float64(sr.gw1.Spills-sr.gw0.Spills), routed)
	v["gateway.retry_ratio"] = ratio(float64(retried), float64(answered))
	v["serve.cache_hit_ratio"] = ratio(float64(cached), float64(ok))
	v["serve.coalesced_ratio"] = ratio(float64(coalesced), float64(ok))
	v["serve.queued_p50_ms"] = quantile(queued, 0.5)
	v["serve.queued_p99_ms"] = quantile(queued, 0.99)

	var hits, hotHits, accepted, rejected, batches, images float64
	hist := make([]float64, maxBatch)
	for i := range sr.shard1 {
		a, b := &sr.shard0[i], &sr.shard1[i]
		if a.ResultCache != nil && b.ResultCache != nil {
			hits += float64(b.ResultCache.Hits - a.ResultCache.Hits)
			hotHits += float64(b.ResultCache.HotHits - a.ResultCache.HotHits)
		}
		accepted += float64(b.Accepted - a.Accepted)
		rejected += float64((b.RejectedFull + b.RejectedBudget + b.RejectedShare) -
			(a.RejectedFull + a.RejectedBudget + a.RejectedShare))
		batches += float64(b.Batches - a.Batches)
		for k := 0; k < maxBatch && k < len(b.BatchHist); k++ {
			d := float64(b.BatchHist[k])
			if k < len(a.BatchHist) {
				d -= float64(a.BatchHist[k])
			}
			hist[k] += d
			images += d * float64(k+1)
		}
	}
	v["serve.replicated_hit_ratio"] = ratio(hotHits, hits)
	v["serve.rejected_ratio"] = ratio(rejected, accepted+rejected)
	v["serve.batch_size_mean"] = ratio(images, batches)
	for k, n := range hist {
		v[fmt.Sprintf("serve.batch_hist.%d", k+1)] = n
	}

	// Fair queueing: each tenant's answered open-loop tail, and its share of
	// completions against its offered share.
	offered, completed := map[string]float64{}, map[string]float64{}
	lat := map[string][]float64{}
	for i := range recs {
		t := tenantOf(sr, recs[i].spec)
		offered[t]++
		if recs[i].ok() {
			completed[t]++
		}
	}
	byTenant := map[string][]record{}
	for _, r := range sr.open {
		byTenant[tenantOf(sr, r.spec)] = append(byTenant[tenantOf(sr, r.spec)], r)
	}
	for t, rs := range byTenant {
		lat[t] = answeredMS(rs)
	}
	for _, t := range benchTenants {
		v["fair.p99_ms."+t] = quantile(lat[t], 0.99)
		v["fair.completed_share."+t] = ratio(completed[t], float64(ok))
		v["fair.offered_share."+t] = ratio(offered[t], float64(len(recs)))
	}

	// Publishes: reload latency, epochs committed, and how many answers
	// right after a publish had to execute.
	var reloadMS []float64
	for _, ev := range sr.reloads {
		reloadMS = append(reloadMS, ms(ev.latency))
	}
	v["publish.reload_ms"] = median(reloadMS)
	v["publish.epochs"] = float64(sr.gw1.CommittedEpoch - sr.gw0.CommittedEpoch)
	after, missed := 0, 0
	for _, win := range append(append([]window{}, sr.openWins...), sr.closedWins...) {
		for i := range win.recs {
			r := &win.recs[i]
			if !r.ok() {
				continue
			}
			at := win.start.Add(r.done)
			for _, ev := range sr.reloads {
				if ev.err == nil && !at.Before(ev.at) && at.Sub(ev.at) < afterPublish {
					after++
					if !r.resp.Cached && !r.resp.Coalesced {
						missed++
					}
					break
				}
			}
		}
	}
	v["serve.miss_ratio_after_publish"] = ratio(float64(missed), float64(after))

	v["model.exact_ratio.quant"] = chk.exactRatio("quant")
	v["model.exact_ratio.student"] = chk.exactRatio("student")

	for name, end := range sr.procEnd {
		cpu := (end.cpu - sr.procStart[name].cpu).Seconds()
		kind := "shard"
		if name == "gateway" {
			kind = "gateway"
		}
		v["proc.cpu_s."+kind] += cpu
		v["proc.rss_mb."+kind] += end.hwmMB
	}

	fails := map[string]float64{}
	failed := 0.0
	for i := range recs {
		if f := recs[i].fail; f != "" {
			fails[f]++
			failed++
		}
	}
	n := float64(len(recs))
	v["fail_ratio"] = ratio(failed, n)
	for _, c := range failClasses {
		v["fail."+c] = ratio(fails[c], n)
	}
	return v
}

func tenantOf(sr *socketRun, s reqSpec) string { return sr.w.tenants[s.tenant] }
