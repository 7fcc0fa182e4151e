package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"rslpa/internal/core"
	"rslpa/internal/evolution"
	"rslpa/internal/obs"
	"rslpa/internal/postprocess"
)

// The traced run reads each layer from outside: it scrapes the writer's
// and the follower's /debug/batches (per-batch span trees) and /metrics
// (histograms, as deltas over the window), polls their Stats, and after
// the run times the public functions of the extraction and evolution
// layers on the reference detector. Scraping runs only in even seconds of
// the window, so comparing edits sent in even and odd seconds gives the
// cost of tracing itself (trace.overhead_pct).
const scrapeEvery = 250 * time.Millisecond

type tracer struct {
	done chan struct{}
	c    *client

	wtraces, ftraces map[uint64]obs.BatchTrace
	queueMax         int
	lagMax           uint64
	wmet0, wmet1     map[string]float64
	fmet0, fmet1     map[string]float64
	mem0, mem1       runtime.MemStats
	err              error
	winStart         time.Time
}

// on reports whether the tracer scrapes at t: during even seconds of the
// window.
func (t *tracer) on(at time.Time) bool {
	d := at.Sub(t.winStart)
	return d >= 0 && int(d/time.Second)%2 == 0
}

func (t *tracer) start(o *observer, sys *system) {
	t.done = make(chan struct{})
	t.c = newClient()
	t.winStart = o.winStart
	t.wtraces = map[uint64]obs.BatchTrace{}
	t.ftraces = map[uint64]obs.BatchTrace{}
	go func() {
		defer close(t.done)
		defer t.c.close()
		sleepUntil(o.winStart, o.stop)
		runtime.ReadMemStats(&t.mem0)
		t.wmet0, t.fmet0 = t.metrics(sys.wsrv.url), t.metrics(sys.fsrv.url)
		for now := time.Now(); now.Before(o.winEnd); now = time.Now() {
			if t.on(now) {
				t.scrape(sys)
			}
			if !sleepUntil(now.Add(scrapeEvery), o.stop) {
				break
			}
		}
		sleepUntil(o.winEnd, o.stop)
		runtime.ReadMemStats(&t.mem1)
		t.wmet1, t.fmet1 = t.metrics(sys.wsrv.url), t.metrics(sys.fsrv.url)
		t.scrape(sys)
	}()
}

func (t *tracer) wait() { <-t.done }

// sleepUntil sleeps until at, or returns false early once stop closes.
func sleepUntil(at time.Time, stop <-chan struct{}) bool {
	d := time.Until(at)
	if d <= 0 {
		return true
	}
	select {
	case <-stop:
		return false
	case <-time.After(d):
		return true
	}
}

func (t *tracer) setErr(err error) {
	if err != nil && t.err == nil {
		t.err = err
	}
}

func (t *tracer) scrape(sys *system) {
	t.batches(sys.wsrv.url, t.wtraces)
	t.batches(sys.fsrv.url, t.ftraces)
	t.queueMax = max(t.queueMax, sys.svc.Stats().QueueDepth)
	t.lagMax = max(t.lagMax, sys.fol.Stats().LagBatches)
}

func (t *tracer) batches(base string, into map[uint64]obs.BatchTrace) {
	body, _, err := t.c.do("GET", base+"/debug/batches", nil)
	if err != nil {
		t.setErr(err)
		return
	}
	var resp struct {
		Recent []obs.BatchTrace `json:"recent"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.setErr(fmt.Errorf("decode /debug/batches: %w", err))
		return
	}
	for _, bt := range resp.Recent {
		into[bt.Epoch] = bt
	}
}

// metrics scrapes a Prometheus text exposition into sample values keyed
// by sample name and labels.
func (t *tracer) metrics(base string) map[string]float64 {
	body, _, err := t.c.do("GET", base+"/metrics", nil)
	if err != nil {
		t.setErr(err)
		return nil
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.setErr(fmt.Errorf("/metrics: malformed line %q", line))
			return nil
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.setErr(fmt.Errorf("/metrics: %q: %w", line, err))
			return nil
		}
		samples[line[:i]] = v
	}
	return samples
}

// histQuantile estimates the q-quantile of the observations a histogram
// gained between two scrapes, interpolating linearly inside the bucket
// that holds it (as Prometheus' histogram_quantile does).
func histQuantile(before, after map[string]float64, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for key, v := range after {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		leText := strings.TrimSuffix(strings.TrimPrefix(key, prefix), `"}`)
		le := math.Inf(1)
		if leText != "+Inf" {
			var err error
			if le, err = strconv.ParseFloat(leText, 64); err != nil {
				continue
			}
		}
		bs = append(bs, bucket{le, v - before[key]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0
	}
	target := q * bs[len(bs)-1].n
	lower, below := 0.0, 0.0
	for _, b := range bs {
		if b.n >= target {
			if math.IsInf(b.le, 1) {
				return lower
			}
			if b.n == below {
				return b.le
			}
			return lower + (b.le-lower)*(target-below)/(b.n-below)
		}
		lower, below = b.le, b.n
	}
	return lower
}

// offlineEpochs is how many final epochs of the reference replay the
// traced run extracts and diffs.
const offlineEpochs = 4

// offlineLayers times the extraction and evolution layers on the
// reference detector, epoch by epoch, as the gate replays the last
// offlineEpochs batches. The service's evolution span includes the
// extraction the diff triggers; Tracker.Advance alone is the diff.
type offlineLayers struct {
	extractMs []float64
	diffMs    []float64
	events    []float64
	tracker   *evolution.Tracker
}

func (l *offlineLayers) epoch(ref *core.State) {
	t0 := time.Now()
	res, err := postprocess.Extract(ref.Graph(), ref.Labels, postprocess.Config{})
	if err != nil {
		return
	}
	l.extractMs = append(l.extractMs, ms(time.Since(t0)))
	comms := res.Cover.Communities()
	if l.tracker == nil {
		l.tracker = evolution.New(evolution.Config{Depth: 8})
		l.tracker.Rebase(ref.Epoch(), comms)
		return
	}
	t0 = time.Now()
	evs, err := l.tracker.Advance(ref.Epoch(), comms)
	if err != nil {
		return
	}
	l.diffMs = append(l.diffMs, ms(time.Since(t0)))
	l.events = append(l.events, float64(len(evs)))
}

// spanOf returns the named span of a batch trace.
func spanOf(bt obs.BatchTrace, name string) (obs.Span, bool) {
	for _, s := range bt.Spans {
		if s.Name == name {
			return s, true
		}
	}
	return obs.Span{}, false
}

// inWindow returns the traces of batches flushed inside the window.
func inWindow(traces map[uint64]obs.BatchTrace, o *observer) []obs.BatchTrace {
	var out []obs.BatchTrace
	for _, bt := range traces {
		if !bt.Start.Before(o.winStart) && bt.Start.Before(o.winEnd) {
			out = append(out, bt)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out
}

// spanValues collects one span's duration (ms) across traces; attr, when
// non-empty, collects that span attribute instead.
func spanValues(traces []obs.BatchTrace, name, attr string) []float64 {
	var xs []float64
	for _, bt := range traces {
		s, ok := spanOf(bt, name)
		if !ok {
			continue
		}
		if attr == "" {
			xs = append(xs, float64(s.Micros)/1000)
		} else {
			xs = append(xs, float64(s.Attrs[attr]))
		}
	}
	return xs
}

// layers reports the per-layer metrics of a traced run.
func layers(m map[string]metric, sys *system, o *observer, ld *load, r e2e, g gateOut) []string {
	var problems []string
	t := &o.tr
	if t.err != nil {
		problems = append(problems, "tracer: "+t.err.Error())
	}
	wt, ft := inWindow(t.wtraces, o), inWindow(t.ftraces, o)
	fmt.Printf("traced batches: writer %d, follower %d\n", len(wt), len(ft))

	// graph: coalescing.
	report(m, "graph.coalesce_us_per_batch", 1000*mean(spanValues(wt, "coalesce", "")), "us", "coalesce span")
	st := sys.svc.Stats()
	absorbed := 0.0
	if st.SubmittedEdits > 0 {
		absorbed = float64(st.CoalescedEdits) / float64(st.SubmittedEdits)
	}
	report(m, "graph.absorbed_ratio", absorbed, "ratio", "coalesced / submitted edits")

	// stream: queue.
	report(m, "stream.queue_wait_p50_ms", 1000*histQuantile(t.wmet0, t.wmet1, "rslpa_stream_queue_wait_seconds", 0.5), "ms", "bucket-interpolated")
	report(m, "stream.queue_wait_p99_ms", 1000*histQuantile(t.wmet0, t.wmet1, "rslpa_stream_queue_wait_seconds", 0.99), "ms", "bucket-interpolated")
	report(m, "stream.queue_depth_max", float64(t.queueMax), "count", "")
	var edits []float64
	for _, bt := range wt {
		edits = append(edits, float64(bt.Edits))
	}
	report(m, "stream.batch_edits_p50", median(edits), "count", "")

	// core: Update.
	upd := summarize(spanValues(wt, "update", ""), 0.99)
	report(m, "core.update_p50_ms", upd.P50, "ms", upd.String())
	report(m, "core.update_p99_ms", upd.Pq, "ms", upd.String())
	report(m, "core.dirty_per_batch", mean(spanValues(wt, "update", "dirty_vertices")), "count", "")
	report(m, "core.touched_per_batch", mean(spanValues(wt, "update", "touched")), "count", "")
	report(m, "core.rounds_run_per_batch", mean(spanValues(wt, "update", "rounds_run")), "count", "")
	report(m, "core.replay_update_ms_per_batch", mean(g.replayMs), "ms", fmt.Sprintf("State.Update over %d journaled batches", len(g.replayMs)))

	// stream: publish, journal.
	pub := summarize(spanValues(wt, "publish", ""), 0.99)
	report(m, "stream.publish_p50_ms", pub.P50, "ms", pub.String())
	report(m, "stream.publish_p99_ms", pub.Pq, "ms", pub.String())
	rep, shards := spanValues(wt, "publish", "shards_republished"), spanValues(wt, "publish", "snapshot_shards")
	ratio := 0.0
	if s := mean(shards); s > 0 {
		ratio = mean(rep) / s
	}
	report(m, "stream.shards_republished_ratio", ratio, "ratio", "")
	jr := summarize(spanValues(wt, "journal", ""), 0.99)
	report(m, "stream.journal_p99_ms", jr.Pq, "ms", jr.String()+", includes the in-memory checkpoint every 16 batches")
	c := newClient()
	defer c.close()
	ckpt, _, err := c.do("GET", sys.wsrv.url+"/checkpoint", nil)
	if err != nil {
		problems = append(problems, "GET /checkpoint: "+err.Error())
	}
	report(m, "stream.checkpoint_bytes", float64(len(ckpt)), "bytes", "")

	// postprocess: extraction, split into edge weights and the sweep.
	var weights, sweep []float64
	edges := 0
	if g.ref != nil {
		sc := &postprocess.ExtractScratch{}
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			ws := sc.EdgeWeights(g.ref.Graph(), g.ref.Labels, postprocess.Intersection)
			t1 := time.Now()
			if _, err := sc.ExtractFromWeights(g.ref.Graph(), ws, postprocess.Config{}); err != nil {
				problems = append(problems, "ExtractFromWeights: "+err.Error())
			}
			weights = append(weights, ms(t1.Sub(t0)))
			sweep = append(sweep, ms(time.Since(t1)))
			edges = len(ws)
		}
	}
	report(m, "postprocess.extract_ms", median(g.offline.extractMs), "ms", fmt.Sprintf("postprocess.Extract, median of %d epochs", len(g.offline.extractMs)))
	report(m, "postprocess.weights_ms", median(weights), "ms", "ExtractScratch.EdgeWeights")
	report(m, "postprocess.sweep_ms", median(sweep), "ms", "ExtractScratch.ExtractFromWeights")
	report(m, "postprocess.edges_weighed_per_extract", float64(edges), "count", "")

	// evolution. rslpa_evolution_diff_seconds and the evolution span both
	// include the extraction the diff triggers; the diff alone is
	// Tracker.Advance, timed offline.
	report(m, "stream.evolution_p50_ms", median(spanValues(wt, "evolution", "")), "ms", "evolution span, includes extraction")
	report(m, "evolution.diff_ms", median(g.offline.diffMs), "ms", fmt.Sprintf("Tracker.Advance, median of %d epochs", len(g.offline.diffMs)))
	report(m, "evolution.events_per_epoch", mean(g.offline.events), "count", "")

	// stream: HTTP render on an already-extracted epoch (the gate's
	// /communities read extracted the final one).
	var render, vertex []float64
	size := 0
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		body, end, err := c.do("GET", sys.wsrv.url+"/communities", nil)
		if err != nil {
			problems = append(problems, "GET /communities: "+err.Error())
			break
		}
		render = append(render, ms(end.Sub(t0)))
		size = len(body)
	}
	var vs []uint32
	if g.ref != nil {
		vs = g.ref.Graph().Vertices()
	}
	for i := 0; i < 21 && len(vs) > 0; i++ {
		v := vs[(i*7919)%len(vs)]
		t0 := time.Now()
		_, end, err := c.do("GET", fmt.Sprintf("%s/vertex/%d", sys.wsrv.url, v), nil)
		if err != nil {
			problems = append(problems, "GET /vertex: "+err.Error())
			break
		}
		vertex = append(vertex, ms(end.Sub(t0)))
	}
	report(m, "stream.render_communities_ms", median(render), "ms", "")
	report(m, "stream.render_communities_bytes", float64(size), "bytes", "")
	report(m, "stream.vertex_read_ms", median(vertex), "ms", "")
	// Client-side read tails do not repeat within an end-to-end bound on
	// evolve: fresh reads, the first to carry a new epoch, come once per
	// epoch (9 to 16 in a run), and the p99 of millisecond reads there is
	// decided by a handful of stalls. They are reported here.
	report(m, "stream.query_p99_ms", r.query.Pq, "ms", r.query.String())
	report(m, "stream.fresh_read_p50_ms", r.fresh.P50, "ms", r.fresh.String())
	report(m, "stream.fresh_read_p90_ms", r.fresh.Pq, "ms", r.fresh.String())
	report(m, "stream.query_server_p99_ms", 1000*histQuantile(t.wmet0, t.wmet1, "rslpa_stream_query_seconds", 0.99), "ms", "writer, bucket-interpolated")

	// replica.
	report(m, "replica.poll_p50_ms", 1000*histQuantile(t.fmet0, t.fmet1, "rslpa_replica_poll_seconds", 0.5), "ms", "bucket-interpolated")
	report(m, "replica.poll_p99_ms", 1000*histQuantile(t.fmet0, t.fmet1, "rslpa_replica_poll_seconds", 0.99), "ms", "bucket-interpolated")
	report(m, "replica.replay_update_p50_ms", median(spanValues(ft, "update", "")), "ms", "")
	report(m, "replica.replay_publish_p50_ms", median(spanValues(ft, "publish", "")), "ms", "")
	report(m, "replica.lag_batches_max", float64(t.lagMax), "count", "")
	report(m, "replica.bootstrap_s", sys.bootstrap.Seconds(), "s", "replica.New")
	report(m, "replica.rebootstraps", float64(sys.fol.Stats().Rebootstraps), "count", "")

	// Go runtime, over the window.
	batches := float64(len(wt))
	report(m, "runtime.gc_pause_total_ms", float64(t.mem1.PauseTotalNs-t.mem0.PauseTotalNs)/1e6, "ms", "")
	report(m, "runtime.gc_cycles", float64(t.mem1.NumGC-t.mem0.NumGC), "count", "")
	alloc := 0.0
	if batches > 0 {
		alloc = float64(t.mem1.TotalAlloc-t.mem0.TotalAlloc) / (1 << 20) / batches
	}
	report(m, "runtime.alloc_mb_per_batch", alloc, "MB", "whole process")

	// Load generator: validity of the run, not a target.
	report(m, "loadgen.late_p99_ms", r.lateP99, "ms", fmt.Sprintf("bound %.0f ms", lateBoundMs))
	report(m, "loadgen.edit_posts", float64(len(ld.posts)), "count", "")
	report(m, "loadgen.reads", float64(len(ld.reads)), "count", "")
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	report(m, "loadgen.error_rate", errRate, "ratio", "failed / attempted operations")

	overhead := 0.0
	if off := median(r.visibleOff); off > 0 {
		overhead = 100 * (median(r.visibleOn) - off) / off
	}
	report(m, "trace.overhead_pct", overhead, "%", fmt.Sprintf("edit_visible_p50 scraping vs not, n=%d/%d", len(r.visibleOn), len(r.visibleOff)))
	return problems
}
