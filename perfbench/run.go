package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// lateBoundMs bounds how late (p99) the load generator may wake for a
// request whose connection was free: beyond it the offered schedule was
// not the one sent, and the run is rejected.
const lateBoundMs = 50.0

// tickPhase is how long after a flush tick the schedule starts, clear of
// the tick itself so that no POST races it.
const tickPhase = 3 * time.Millisecond

// watchEvery is how often the in-process observers read the writer's and
// the follower's published epoch; it bounds the resolution of the
// edit-to-visible latencies.
const watchEvery = time.Millisecond

// observer runs beside the load: it stamps when each epoch becomes
// visible on the writer and the follower, records the writer's journal,
// samples the heap, and (traced runs) scrapes the layers.
type observer struct {
	traced   bool
	base     time.Time // the schedule's time zero
	winStart time.Time
	winEnd   time.Time
	stop     chan struct{}
	wg       sync.WaitGroup

	writer, follower epochLog
	feed             feedLog
	heapMB           []float64

	// Traced runs only.
	tr tracer
}

func observe(sys *system, w workload, window time.Duration, traced bool) *observer {
	o := &observer{traced: traced, stop: make(chan struct{})}
	// Time zero sits tickPhase after a tick of the writer's flush ticker.
	// With POST periods stretched by 1/n of a tick (see sweep), the n
	// POSTs of a rung then meet the ticker at the same n phases in every
	// run, instead of at n phases shifted by a random offset.
	o.base = time.Now().Add(100 * time.Millisecond)
	o.base = o.base.Add(flushInterval - o.base.Sub(sys.tickZero)%flushInterval + tickPhase)
	o.winStart = o.base.Add(w.warm)
	o.winEnd = o.winStart.Add(window)
	o.writer.observe(sys.svc.Snapshot().Epoch(), time.Now())
	o.follower.observe(sys.fol.Snapshot().Epoch(), time.Now())
	o.wg.Add(3)
	go func() {
		defer o.wg.Done()
		t := time.NewTicker(watchEvery)
		defer t.Stop()
		for {
			select {
			case <-o.stop:
				return
			case now := <-t.C:
				o.watch(sys, now)
			}
		}
	}()
	go func() {
		defer o.wg.Done()
		t := time.NewTicker(500 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-o.stop:
				return
			case <-t.C:
				o.feed.catchUp(sys)
			}
		}
	}()
	go func() {
		defer o.wg.Done()
		// One heap sample per second of the window, after warm-up.
		for i := 0; ; i++ {
			at := o.winStart.Add(time.Duration(i)*time.Second + 500*time.Millisecond)
			if !at.Before(o.winEnd) {
				return
			}
			select {
			case <-o.stop:
				return
			case <-time.After(time.Until(at)):
			}
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			o.heapMB = append(o.heapMB, float64(m.HeapInuse)/(1<<20))
		}
	}()
	if traced {
		o.tr.start(o, sys)
	}
	return o
}

func (o *observer) watch(sys *system, now time.Time) {
	o.writer.observe(sys.svc.Snapshot().Epoch(), now)
	o.follower.observe(sys.fol.Snapshot().Epoch(), now)
}

// load is what the generator sent and how each request fared.
type load struct {
	posts   []post
	postRes []opResult
	reads   []read
	readRes []opResult
	events  []eventsPage
}

// eventsPage is one GET /events response: the cursor it asked from, the
// newest epoch it reported, and the distinct epochs its events carry.
type eventsPage struct {
	From, Writer uint64
	Epochs       []uint64
}

// drive runs the edit and read schedules, each open-loop on its own
// connection, and returns once both are done. A saturating rung leaves
// POSTs unsent when the window ends; they are dropped, and ld keeps only
// the requests sent.
func drive(sys *system, o *observer, posts []post, reads []read) *load {
	ld := &load{}
	edits, readers := newClient(), newClient()
	defer edits.close()
	defer readers.close()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		url := sys.wsrv.url + "/edits"
		ld.postRes = openLoop(o.base, o.winEnd, len(posts), func(i int) time.Duration { return posts[i].Due }, func(i int) reply {
			_, end, err := edits.do("POST", url, posts[i].Body)
			return reply{End: end, Err: err}
		})
	}()
	go func() {
		defer wg.Done()
		var cursor uint64
		ld.readRes = openLoop(o.base, o.winEnd, len(reads), func(i int) time.Duration { return reads[i].Due }, func(i int) reply {
			rd := reads[i]
			var url, key string
			switch rd.Kind {
			case readHealthz:
				url, key = sys.fsrv.url+"/healthz", "follower_epoch"
			case readEvents:
				url, key = fmt.Sprintf("%s/events?from=%d", sys.wsrv.url, cursor), "writer_epoch"
			case readEpoch:
				url, key = fmt.Sprintf("%s/communities?epoch=%d", sys.wsrv.url, cursor), "epoch"
			case readCommunities:
				url, key = sys.wsrv.url+"/communities", "epoch"
			case readVertex:
				url, key = fmt.Sprintf("%s/vertex/%d", sys.wsrv.url, rd.Vertex), "epoch"
			}
			body, end, err := readers.do("GET", url, nil)
			r := reply{End: end, Err: err}
			if err != nil {
				return r
			}
			r.Epoch, r.HasEpoch = jsonUint(body, key)
			if rd.Kind == readEvents {
				page, perr := parseEvents(cursor, body)
				if perr != nil {
					r.Err = perr
					return r
				}
				ld.events = append(ld.events, page)
				cursor = page.Writer
			}
			return r
		})
	}()
	wg.Wait()
	ld.posts, ld.reads = posts[:len(ld.postRes)], reads[:len(ld.readRes)]
	return ld
}

func parseEvents(from uint64, body []byte) (eventsPage, error) {
	var resp struct {
		WriterEpoch uint64 `json:"writer_epoch"`
		Events      []struct {
			Epoch uint64 `json:"epoch"`
		} `json:"events"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return eventsPage{}, fmt.Errorf("decode /events: %w", err)
	}
	page := eventsPage{From: from, Writer: resp.WriterEpoch}
	for _, e := range resp.Events {
		if n := len(page.Epochs); n == 0 || page.Epochs[n-1] != e.Epoch {
			page.Epochs = append(page.Epochs, e.Epoch)
		}
	}
	return page, nil
}

// finish drains the writer, waits for the follower to reach the writer's
// final epoch, stops the observers and completes the journal record.
func finish(sys *system, o *observer) error {
	if err := sys.svc.Drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := sys.followerAt(sys.svc.Snapshot().Epoch(), time.Minute); err != nil {
		return err
	}
	close(o.stop)
	o.wg.Wait()
	if o.traced {
		o.tr.wait()
	}
	o.watch(sys, time.Now())
	o.feed.catchUp(sys)
	return nil
}

// e2e holds the end-to-end results of one run.
type e2e struct {
	visible, fvisible summary
	steps             []step
	within            int // highest rung within the latency limit, or -1
	sustained         float64
	batchesPerS       float64
	query, fresh      summary
	heapMB            float64 // median heap sample less the harness's heap
	heapN             int
	harnessMB         float64
	lateP99           float64
	attempted, failed int
	opsLine           string
	// Writer edit-to-visible p50 split by whether the tracer was
	// scraping when the edit was sent (traced runs).
	visibleOn, visibleOff []float64
}

func measure(w workload, ld *load, o *observer, window time.Duration) (e2e, []string) {
	var r e2e
	var problems []string
	if o.feed.err != nil {
		problems = append(problems, "journal record: "+o.feed.err.Error())
	}
	epochOf, err := epochIndex(o.feed.batches)
	if err != nil {
		problems = append(problems, err.Error())
	}

	stepLat := make([][]float64, len(w.ladder))
	var vis, fvis []float64
	editsSent, editsFailed := 0, 0
	for i, p := range ld.posts {
		due := o.base.Add(p.Due)
		lat, failed := visibility(due, p.Keys, epochOf, &o.writer)
		flat, _ := visibility(due, p.Keys, epochOf, &o.follower)
		if !ld.postRes[i].OK {
			lat, flat, failed = nil, nil, len(p.Keys)
		}
		editsSent += len(p.Keys)
		editsFailed += failed
		k := w.rungAt(p.Due, window)
		if k < 0 {
			continue
		}
		for j := 0; j < failed; j++ {
			lat = append(lat, ms(requestTimeout))
		}
		stepLat[k] = append(stepLat[k], lat...)
		if k == w.visibleStep {
			vis = append(vis, lat...)
			fvis = append(fvis, flat...)
			for j := len(flat); j < len(p.Keys); j++ {
				fvis = append(fvis, ms(requestTimeout))
			}
			if o.traced {
				if o.tr.on(due) {
					r.visibleOn = append(r.visibleOn, lat...)
				} else {
					r.visibleOff = append(r.visibleOff, lat...)
				}
			}
		}
	}
	r.visible = summarize(vis, 0.99)
	r.fvisible = summarize(fvis, 0.99)

	// Each ladder step: p99, backlog growth, and the edits the writer made
	// visible per second while the step was offered.
	batchEdits := func(e uint64) float64 {
		if e > uint64(len(o.feed.batches)) {
			return 0 // the journal record failed; the gate reports it
		}
		return float64(len(o.feed.batches[e-1]))
	}
	for k, rung := range w.ladder {
		start, dur := w.span(k, window)
		from := o.base.Add(start)
		s := summarize(stepLat[k], 0.99)
		r.steps = append(r.steps, step{Rate: rung.rate(), P99: s.Pq, Growing: growing(stepLat[k], w.limitMs/4),
			Achieved: o.writer.rate(batchEdits, from, from.Add(dur))})
	}
	r.within = highestWithin(r.steps, w.limitMs)
	top := len(w.ladder) - 1
	r.sustained = r.steps[top].Achieved
	start, dur := w.span(top, window)
	r.batchesPerS = o.writer.rate(func(uint64) float64 { return 1 }, o.base.Add(start), o.base.Add(start+dur))

	// Reads sent during the named rung, and the fresh ones among them:
	// responses carrying an epoch this client had not seen before.
	var q, fresh []float64
	var seen uint64
	readAttempted := map[readKind]int{}
	readFailed := map[readKind]int{}
	for i, rd := range ld.reads {
		res := ld.readRes[i]
		readAttempted[rd.Kind]++
		if !res.OK {
			readFailed[rd.Kind]++
		}
		isFresh := res.HasEpoch && res.Epoch > seen
		if isFresh {
			seen = res.Epoch
		}
		if w.rungAt(rd.Due, window) != w.readStep {
			continue
		}
		q = append(q, res.Lat)
		if isFresh {
			fresh = append(fresh, res.Lat)
		}
	}
	r.query = summarize(q, 0.99)
	r.fresh = summarize(fresh, 0.90)
	r.heapMB, r.heapN = median(o.heapMB), len(o.heapMB)

	var late []float64
	postsFailed := 0
	for _, res := range ld.postRes {
		if res.Late >= 0 {
			late = append(late, res.Late)
		}
		if !res.OK {
			postsFailed++
		}
	}
	for _, res := range ld.readRes {
		if res.Late >= 0 {
			late = append(late, res.Late)
		}
	}
	r.lateP99 = quantile(late, 0.99)

	ops := []string{fmt.Sprintf("edit POSTs %d/%d failed", postsFailed, len(ld.posts)),
		fmt.Sprintf("edits %d/%d not visible", editsFailed, editsSent)}
	r.attempted = len(ld.posts) + editsSent
	r.failed = postsFailed + editsFailed
	kinds := make([]int, 0, len(readAttempted))
	for k := range readAttempted {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	for _, k := range kinds {
		ops = append(ops, fmt.Sprintf("%s reads %d/%d failed", readNames[k], readFailed[readKind(k)], readAttempted[readKind(k)]))
		r.attempted += readAttempted[readKind(k)]
		r.failed += readFailed[readKind(k)]
	}
	ops = append(ops, fmt.Sprintf("generator late p99 %.2f ms of %d on-time sends", r.lateP99, len(late)))
	r.opsLine = strings.Join(ops, ", ")
	return r, problems
}

func endToEnd(m map[string]metric, setups []float64, r e2e, w workload) {
	at := fmt.Sprintf("at %.0f edits/s", w.ladder[w.visibleStep].rate())
	readAt := fmt.Sprintf("at %.0f edits/s", w.ladder[w.readStep].rate())
	rounds := make([]string, len(setups))
	for i, x := range setups {
		rounds[i] = fmt.Sprintf("%.3f", x)
	}
	report(m, "setup_s", median(setups), "s", "median of "+strings.Join(rounds, " "))
	report(m, "edit_visible_p50_ms", r.visible.P50, "ms", at+", "+r.visible.String())
	report(m, "edit_visible_p99_ms", r.visible.Pq, "ms", at+", "+r.visible.String())
	report(m, "follower_visible_p50_ms", r.fvisible.P50, "ms", at+", "+r.fvisible.String())
	report(m, "follower_visible_p99_ms", r.fvisible.Pq, "ms", at+", "+r.fvisible.String())
	var ladder []string
	for _, s := range r.steps {
		ladder = append(ladder, fmt.Sprintf("%.0f/s: p99 %.1fms growing=%v achieved %.1f/s", s.Rate, s.P99, s.Growing, s.Achieved))
	}
	top := w.ladder[len(w.ladder)-1].rate()
	within := "none"
	if r.within >= 0 {
		within = fmt.Sprintf("%.0f/s", r.steps[r.within].Rate)
	}
	report(m, "sustained_edits_per_s", r.sustained, "1/s", fmt.Sprintf("achieved at %.0f edits/s offered; highest rung within p99 %.0fms: %s; %s",
		top, w.limitMs, within, strings.Join(ladder, "; ")))
	report(m, "batches_per_s", r.batchesPerS, "1/s", fmt.Sprintf("at %.0f edits/s offered", top))
	report(m, "query_p50_ms", r.query.P50, "ms", readAt+", "+r.query.String())
	report(m, "heap_mb", r.heapMB, "MB", fmt.Sprintf("median of %d samples less %.1f MB of harness heap; the journal record the harness keeps (~12 bytes an edit) is not taken off", r.heapN, r.harnessMB))
}
