package main

import (
	"fmt"
	"time"

	"rslpa/internal/graph"
	"rslpa/internal/rng"
)

// Every workload serves the same graph, LFR Default(20000) (the
// generator's own seed 1), detected at T=100 with detector seed 1 on the
// sequential engine, with every service setting at the `rslpa serve` default
// (MaxBatch 512, flush 100ms, queue 4096, checkpoint-every 16, journal
// 1024, follower poll 50ms). A writer Service and one replica.Follower
// always run, so every end-to-end metric is measured on every workload.
// The workload seed draws only the edit stream and the reads, so runs
// with different seeds measure the same system on different traffic.
const (
	lfrN         = 20000
	detectorT    = 100
	detectorSeed = 1
	journal      = 1024
	setupRounds  = 6
)

// readKind is the route one scheduled read hits.
type readKind uint8

const (
	readHealthz     readKind = iota // follower GET /healthz (epoch probe, no extraction)
	readEvents                      // writer GET /events?from=<cursor>
	readEpoch                       // writer GET /communities?epoch=<events cursor>
	readCommunities                 // writer GET /communities
	readVertex                      // writer GET /vertex/{v}
)

var readNames = [...]string{"healthz", "events", "epoch-communities", "communities", "vertex"}

// read is one pre-drawn read of the open-loop read schedule.
type read struct {
	Due    time.Duration
	Kind   readKind
	Vertex uint32
}

// flushInterval is the service's default flush tick.
const flushInterval = 100 * time.Millisecond

// rung is one offered edit rate of a ladder: a POST of PerPost edits
// every Every, held for Weight shares of the measured window.
type rung struct {
	PerPost int
	Every   time.Duration
	Weight  int
}

func (r rung) rate() float64 { return float64(r.PerPost) / r.Every.Seconds() }

// workload is one traffic mix. Edits and reads are each sent open-loop
// on one keep-alive connection, so client load never uses more than two.
type workload struct {
	name      string
	evolution int // writer EvolutionDepth
	warm      time.Duration
	// ladder lists the offered edit rates in the order they are offered;
	// warm-up runs at ladder[0]. The last rung loads the writer most:
	// sustained_edits_per_s and batches_per_s are the rates the writer
	// achieves there.
	ladder []rung
	// visibleStep is the rung at which edit_visible_* and
	// follower_visible_* are taken, readStep the one for query_* and
	// fresh_read_*.
	visibleStep, readStep int
	// limitMs is the writer edit-to-visible p99 a rung must meet (with a
	// non-growing backlog) to count as within the limit.
	limitMs   float64
	readEvery time.Duration
	readAt    func(i int, r *rng.Source, vs []graph.VertexID) read
}

var workloads = []workload{
	{
		// Nothing extracts: coalesce, Update, COW publish, journal and the
		// in-memory checkpoint, feed and follower replay are the whole
		// path. The only reads are /healthz epoch probes on the follower.
		// Edit latencies are taken at 2k edits/s, well inside capacity,
		// where they repeat. 24k edits/s is far above the writer's
		// capacity (12k-18k on 2 vCPUs), so on the top rung the queue
		// stays full, POST /edits blocks on it, and the edits made
		// visible per second there are the writer's drain rate: its
		// capacity, in batches near the 512-edit cap. The probes are timed
		// there too, where their latency is the follower's answer under
		// full replay load rather than sub-millisecond scheduler noise. A
		// probe then takes ~50 ms, so they are sent 100 ms apart: a
		// faster probe stream would queue on its connection and time its
		// own backlog.
		name: "ingest-replicate",
		warm: time.Second,
		ladder: []rung{
			{20, 10 * time.Millisecond, 2}, {40, 10 * time.Millisecond, 1},
			{80, 10 * time.Millisecond, 1}, {240, 10 * time.Millisecond, 2},
		},
		visibleStep: 0,
		readStep:    3,
		limitMs:     1000,
		readEvery:   100 * time.Millisecond,
		readAt: func(i int, r *rng.Source, vs []graph.VertexID) read {
			return read{Kind: readHealthz}
		},
	},
	{
		// Every batch pays a full extraction plus the evolution diff on
		// the maintenance goroutine (about 0.55 s). On a busy writer the
		// loop's select splits queued edits between two batches at random,
		// so latencies there do not repeat from run to run. The first
		// rung spaces POSTs 1.3 s apart, room for even a split POST's two
		// diffs, so the writer is idle when each POST arrives; the
		// latencies and reads are taken there. The follower sees a batch
		// only after its diff, so follower_visible carries the
		// extraction. The second rung offers edits faster than the writer
		// can diff a batch: batches_per_s there is the extraction-bound
		// capacity. Coalescing folds the queued edits into each batch, so
		// the edit rate achieved there is the offered 50/s. The
		// reader consumes events: /events from its cursor, then the
		// communities of the epoch the events reached, which the diff
		// already extracted.
		name:      "evolve",
		evolution: 8,
		warm:      2 * time.Second,
		ladder: []rung{
			{25, 1300 * time.Millisecond, 1}, {5, 100 * time.Millisecond, 1},
		},
		limitMs:   10000,
		readEvery: 25 * time.Millisecond,
		readAt: func(i int, r *rng.Source, vs []graph.VertexID) read {
			if i%2 == 0 {
				return read{Kind: readEvents}
			}
			return read{Kind: readEpoch}
		},
	},
	{
		// Extraction runs on the read path: the first read of each epoch
		// pays it, the rest hit the memoized result. One epoch per 1.5 s
		// keeps the reader's connection blocked on extraction about a
		// third of the time, so the median read and the p99 read fall in
		// different, stable modes (at one epoch per second the median
		// flips between them from run to run). The one rung is well inside
		// capacity, so sustained_edits_per_s and batches_per_s read the
		// offered schedule here. Not in BENCHMARK.json: its 16 epochs all
		// publish on flush ticks, the follower's 50 ms poll loop can hold
		// one phase against the ticks for a whole run, and
		// follower_visible_p50 does not repeat within the 0.25 bound.
		name:      "read-mix",
		warm:      2 * time.Second,
		ladder:    []rung{{48, 1500 * time.Millisecond, 1}},
		limitMs:   1000,
		readEvery: 10 * time.Millisecond,
		readAt: func(i int, r *rng.Source, vs []graph.VertexID) read {
			if i%16 == 15 {
				return read{Kind: readCommunities}
			}
			return read{Kind: readVertex, Vertex: vs[r.Intn(len(vs))]}
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// span returns when rung k starts, counted from time zero, and how long
// it is offered: its Weight's share of the window, after the warm-up.
func (w workload) span(k int, window time.Duration) (start, dur time.Duration) {
	total, before := 0, 0
	for i, r := range w.ladder {
		if i < k {
			before += r.Weight
		}
		total += r.Weight
	}
	unit := window / time.Duration(total)
	return w.warm + unit*time.Duration(before), unit * time.Duration(w.ladder[k].Weight)
}

// rungAt returns the rung offered at offset t from time zero, or -1
// outside the window.
func (w workload) rungAt(t, window time.Duration) int {
	for k := range w.ladder {
		if start, dur := w.span(k, window); t >= start && t < start+dur {
			return k
		}
	}
	return -1
}

// segments lays the edit schedule out: warm-up at the first rung, then
// each rung for its share of the window.
func (w workload) segments(window time.Duration) []segment {
	segs := []segment{sweep(w.ladder[0], 0, w.warm)}
	for k, r := range w.ladder {
		start, dur := w.span(k, window)
		segs = append(segs, sweep(r, start, dur))
	}
	return segs
}

// sweep turns a rung into a segment. A POST period of a whole number of
// flush ticks would meet the ticker at one phase for the whole run, and
// that phase, different in every run, would set every latency; stretching
// the period by 1/n of a tick makes the n POSTs of the segment meet the
// ticker at n evenly spaced phases.
func sweep(r rung, start, dur time.Duration) segment {
	n := int(dur / r.Every)
	every := r.Every
	if every >= flushInterval && n > 0 {
		every += flushInterval / time.Duration(n)
	}
	return segment{Start: start, Every: every, PerPost: r.PerPost, Count: n}
}

// reads draws the read schedule for the warm-up and the window.
func (w workload) reads(window time.Duration, vs []graph.VertexID, seed uint64) []read {
	r := rng.NewStream(seed, 0x5ead)
	n := int((w.warm + window) / w.readEvery)
	out := make([]read, n)
	for i := range out {
		out[i] = w.readAt(i, r, vs)
		out[i].Due = time.Duration(i) * w.readEvery
	}
	return out
}
