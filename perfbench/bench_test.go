package main

import (
	"bytes"
	"math"
	"testing"
	"time"

	"rslpa/internal/graph"
	"rslpa/internal/lfr"
)

func TestReportQuantile(t *testing.T) {
	for _, c := range []struct {
		n         int
		want, got float64
	}{
		{1000, 0.99, 0.99}, // exactly ten samples beyond p99
		{2000, 0.99, 0.99}, // more than enough
		{500, 0.99, 0.98},  // ten beyond p98
		{100, 0.90, 0.90},  // ten beyond p90
		{40, 0.90, 0.75},   // ten beyond p75
		{15, 0.90, 0.5},    // never below the median
		{0, 0.99, 0.5},     // empty sample
		{1000, 0.5, 0.5},   // the median is always reported as is
	} {
		if q := reportQuantile(c.n, c.want); math.Abs(q-c.got) > 1e-12 {
			t.Errorf("reportQuantile(%d, %v) = %v, want %v", c.n, c.want, q, c.got)
		}
	}
	// The rule holds on real samples: at least ten values lie above the
	// reported percentile.
	for _, n := range []int{20, 57, 100, 999, 1000, 1234} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		s := summarize(xs, 0.99)
		beyond := 0
		for _, x := range xs {
			if x > s.Pq {
				beyond++
			}
		}
		if beyond < minBeyond && s.Q > 0.5 {
			t.Errorf("n=%d: only %d samples beyond p%v", n, beyond, 100*s.Q)
		}
	}
}

func TestEditEpochMapping(t *testing.T) {
	batches := [][]graph.Edit{
		{{Op: graph.Insert, U: 1, V: 2}, {Op: graph.Delete, U: 3, V: 4}},
		{{Op: graph.Insert, U: 5, V: 9}},
		{},
		{{Op: graph.Insert, U: 2, V: 7}},
	}
	idx, err := epochIndex(batches)
	if err != nil {
		t.Fatal(err)
	}
	// Keys are orientation-free: a POST may carry (v,u) for a journaled (u,v).
	for key, want := range map[uint64]uint64{
		graph.EdgeKey(2, 1): 1, graph.EdgeKey(3, 4): 1, graph.EdgeKey(9, 5): 2, graph.EdgeKey(2, 7): 4,
	} {
		if got, ok := idx[key]; !ok || got != want {
			t.Errorf("edge %x: epoch %d (found %v), want %d", key, got, ok, want)
		}
	}

	base := time.Unix(1000, 0)
	var log epochLog
	log.observe(0, base)
	log.observe(2, base.Add(40*time.Millisecond)) // epochs 1 and 2 seen together
	log.observe(4, base.Add(90*time.Millisecond))
	keys := []uint64{graph.EdgeKey(1, 2), graph.EdgeKey(5, 9), graph.EdgeKey(2, 7), graph.EdgeKey(8, 9)}
	lat, failed := visibility(base.Add(10*time.Millisecond), keys, idx, &log)
	if want := []float64{30, 30, 80}; !equalFloats(lat, want) || failed != 1 {
		t.Errorf("visibility = %v, %d failed; want %v, 1 failed (the unjournaled edit)", lat, failed, want)
	}
	// An epoch never observed counts as failed too.
	short := epochLog{seen: log.seen[:3]}
	if _, failed := visibility(base, keys[2:3], idx, &short); failed != 1 {
		t.Errorf("edit in an unobserved epoch: %d failed, want 1", failed)
	}

	dup := append(batches, []graph.Edit{{Op: graph.Delete, U: 1, V: 2}})
	if _, err := epochIndex(dup); err == nil {
		t.Error("an edge journaled twice was accepted")
	}
}

func TestEpochRate(t *testing.T) {
	base := time.Unix(1000, 0)
	var log epochLog
	for e := uint64(0); e <= 6; e++ {
		log.observe(e, base.Add(time.Duration(e)*500*time.Millisecond))
	}
	one := func(uint64) float64 { return 1 }
	// Epochs 2..5 fall in [1s, 2.6s): three intervals over 1.5 s.
	if got := log.rate(one, base.Add(time.Second), base.Add(2600*time.Millisecond)); math.Abs(got-2) > 1e-9 {
		t.Errorf("rate = %v, want 2", got)
	}
	if got := log.rate(one, base.Add(10*time.Second), base.Add(20*time.Second)); got != 0 {
		t.Errorf("rate over an empty interval = %v, want 0", got)
	}
}

func TestHighestWithin(t *testing.T) {
	steps := []step{
		{Rate: 2000, P99: 120},
		{Rate: 4000, P99: 150},
		{Rate: 8000, P99: 300},
		{Rate: 16000, P99: 2200, Growing: true},
	}
	if got := highestWithin(steps, 1000); got != 2 {
		t.Errorf("limit 1000: step %d, want 2", got)
	}
	if got := highestWithin(steps, 250); got != 1 {
		t.Errorf("limit 250: step %d, want 1", got)
	}
	// A growing backlog fails a step even within the latency limit.
	steps[3].P99 = 500
	if got := highestWithin(steps, 1000); got != 2 {
		t.Errorf("growing top step: step %d, want 2", got)
	}
	if got := highestWithin(steps, 50); got != -1 {
		t.Errorf("nothing passes: step %d, want -1", got)
	}

	if growing([]float64{50, 60, 55, 52, 58, 61, 49, 57}, 20) {
		t.Error("flat latencies read as a growing backlog")
	}
	if !growing([]float64{50, 60, 120, 200, 400, 600, 800, 1000}, 20) {
		t.Error("a latency ramp did not read as a growing backlog")
	}
}

func TestLadderSpans(t *testing.T) {
	w, err := findWorkload("ingest-replicate")
	if err != nil {
		t.Fatal(err)
	}
	window := 24 * time.Second
	// Weights 2,1,1,2 over 24s: rungs of 8s, 4s, 4s and 8s after warm-up.
	for k, want := range []time.Duration{8, 4, 4, 8} {
		if _, dur := w.span(k, window); dur != want*time.Second {
			t.Errorf("rung %d lasts %v, want %v", k, dur, want*time.Second)
		}
	}
	for at, want := range map[time.Duration]int{
		0: -1, w.warm: 0, w.warm + 8*time.Second: 1, w.warm + 11*time.Second: 1,
		w.warm + 12*time.Second: 2, w.warm + 23*time.Second: 3, w.warm + window: -1,
	} {
		if got := w.rungAt(at, window); got != want {
			t.Errorf("rungAt(%v) = %d, want %d", at, got, want)
		}
	}
	// Each segment's POSTs stay inside its span, and a period of a whole
	// number of ticks is stretched so the POSTs sweep the tick's phases.
	segs := w.segments(window)
	for k := range w.ladder {
		start, dur := w.span(k, window)
		s := segs[k+1]
		if s.Start != start || s.Start+time.Duration(s.Count-1)*s.Every >= start+dur {
			t.Errorf("rung %d: segment %+v outside [%v, %v)", k, s, start, start+dur)
		}
	}
	if s := sweep(rung{PerPost: 1, Every: time.Second, Weight: 1}, 0, 10*time.Second); s.Count != 10 || s.Every != time.Second+flushInterval/10 {
		t.Errorf("sweep = %+v, want 10 POSTs every %v", s, time.Second+flushInterval/10)
	}
}

func TestEditStreamDeterministic(t *testing.T) {
	p := lfr.Default(400)
	p.Seed = 3
	gen, err := lfr.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	g := gen.Graph
	segs := workloads[0].segments(2 * time.Second)
	for i := range segs {
		segs[i].PerPost = 3 // keep the stream within the small graph
	}
	encoded := func(seed uint64) []byte {
		posts, err := buildPosts(g, segs, seed)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		for _, p := range posts {
			b.WriteString(p.Due.String())
			b.Write(p.Body)
		}
		return b.Bytes()
	}
	a, b := encoded(7), encoded(7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave different edit streams")
	}
	if bytes.Equal(a, encoded(8)) {
		t.Fatal("different seeds gave the same edit stream")
	}

	// Deletions and insertions alternate, so every POST keeps the 50/50 mix.
	edits, err := drawEdits(g, 7, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range edits {
		if want := i%2 == 1 || i == len(edits)-1; (e.Op == graph.Insert) != want {
			t.Fatalf("edit %d is %+v, breaking the delete/insert alternation", i, e)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	before := map[string]float64{`h_bucket{le="0.1"}`: 1, `h_bucket{le="0.2"}`: 1, `h_bucket{le="+Inf"}`: 1}
	after := map[string]float64{`h_bucket{le="0.1"}`: 6, `h_bucket{le="0.2"}`: 11, `h_bucket{le="+Inf"}`: 11, "h_count": 11}
	for q, want := range map[float64]float64{0.5: 0.1, 0.75: 0.15, 1: 0.2} {
		if got := histQuantile(before, after, "h", q); math.Abs(got-want) > 1e-12 {
			t.Errorf("q=%v: %v, want %v", q, got, want)
		}
	}
	if got := histQuantile(before, before, "h", 0.5); got != 0 {
		t.Errorf("no new observations: %v, want 0", got)
	}
}

func TestEventGaps(t *testing.T) {
	ok := []eventsPage{
		{From: 0, Writer: 0},
		{From: 0, Writer: 2, Epochs: []uint64{1, 2}},
		{From: 0, Writer: 3, Epochs: []uint64{1, 2, 3}}, // re-reads overlap
		{From: 3, Writer: 3},
	}
	if p := eventGaps(ok); len(p) != 0 {
		t.Errorf("contiguous pages flagged: %v", p)
	}
	for name, pages := range map[string][]eventsPage{
		"epoch missing in a page": {{From: 0, Writer: 3, Epochs: []uint64{1, 3}}},
		"pages skip an epoch":     {{From: 0, Writer: 2, Epochs: []uint64{1, 2}}, {From: 3, Writer: 4, Epochs: []uint64{4}}},
	} {
		if p := eventGaps(pages); len(p) == 0 {
			t.Errorf("%s: not flagged", name)
		}
	}
}

func TestJSONUint(t *testing.T) {
	body := []byte(`{"communities":[[1,2],[3]],"edges":5,"epoch":42,"vertices":3}`)
	if v, ok := jsonUint(body, "epoch"); !ok || v != 42 {
		t.Errorf("epoch = %d, %v", v, ok)
	}
	if _, ok := jsonUint(body, "writer_epoch"); ok {
		t.Error("found an absent key")
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			return false
		}
	}
	return true
}

func TestOpenLoopStopsAtWindowEnd(t *testing.T) {
	// Each send holds the connection for 100 ms, so the second request
	// goes out late but inside the window and the third finds it over.
	base := time.Now()
	res := openLoop(base, base.Add(150*time.Millisecond), 10, func(i int) time.Duration {
		return time.Duration(i) * 10 * time.Millisecond
	}, func(int) reply {
		time.Sleep(100 * time.Millisecond)
		return reply{End: time.Now()}
	})
	if len(res) != 2 {
		t.Fatalf("%d requests sent, want 2", len(res))
	}
	if res[1].Late != -1 || res[1].Lat < 180 {
		t.Errorf("second request: %+v, want charged from its scheduled time and not counted as generator lateness", res[1])
	}
}
