// Command perfbench is the end-to-end benchmark of the streaming service:
// a writer Service and a replica.Follower, built with the public
// constructors in this process and driven over loopback HTTP by an
// open-loop load generator on at most two client connections.
//
//	python3 perfbench/run.py --workload evolve --seed 1 --seconds 24 --trace 0
//
// run from the repository root, builds it into .bench_build and runs it.
//
// The last line of standard output is one JSON object:
//
//	{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": x, "unit": u}}}
//
// With --trace 0 the metrics are the end-to-end ones (see BENCHMARK.json);
// with --trace 1 they are the per-layer ones, read from outside each
// layer: timed calls into its public functions, and the program's own
// /stats, /metrics and /debug/batches. Every run ends with a correctness
// gate outside the timed window: the journaled batches are replayed
// through a fresh reference detector, and writer and follower must match
// it bit for bit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"rslpa/internal/lfr"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: ingest-replicate, evolve or read-mix")
	seed := flag.Uint64("seed", 1, "seed for the edit stream and the reads")
	seconds := flag.Int("seconds", 20, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload ingest-replicate|evolve|read-mix --seed n --seconds n --trace 0|1:", err)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// report prints one metric by name with its unit and stores it.
func report(m map[string]metric, name string, v float64, unit, note string) {
	m[name] = metric{Value: v, Unit: unit}
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Printf("%-40s %14.4f %-6s%s\n", name, v, unit, note)
}

func run(w workload, seed uint64, window time.Duration, traced bool) (*result, error) {
	gen, err := lfr.Generate(lfr.Default(lfrN))
	if err != nil {
		return nil, fmt.Errorf("lfr: %w", err)
	}
	g0 := gen.Graph
	posts, err := buildPosts(g0, w.segments(window), seed)
	if err != nil {
		return nil, fmt.Errorf("edit stream: %w", err)
	}
	reads := w.reads(window, g0.Vertices(), seed)
	fmt.Printf("workload %s seed %d window %s traced %v: n=%d m=%d, %d POSTs, %d reads pre-generated\n",
		w.name, seed, window, traced, g0.NumVertices(), g0.NumEdges(), len(posts), len(reads))

	// The harness's own live heap (the graph it keeps for the gate, the
	// pre-encoded edit stream, the read schedule) is measured here and
	// taken off the heap samples, so heap_mb is the system's heap.
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	harnessMB := float64(mem.HeapInuse) / (1 << 20)

	// Set-up is timed setupRounds times and the median reported, half of
	// the rounds before the window and half after it: set-up time drifts
	// with the machine's load over tens of seconds, and rounds that far
	// apart average some of that drift out. The last system built before
	// the window is the one measured.
	var setups []float64
	var sys *system
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()
	setUp := func() error {
		if sys != nil {
			sys.close()
			sys = nil
		}
		runtime.GC()
		t0 := time.Now()
		s, err := startSystem(g0, w)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		sys = s
		return nil
	}
	for i := 0; i < setupRounds/2; i++ {
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	runtime.GC()

	obsv := observe(sys, w, window, traced)
	ld := drive(sys, obsv, posts, reads)
	if err := finish(sys, obsv); err != nil {
		return nil, err
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	e2e, problems := measure(w, ld, obsv, window)
	e2e.heapMB -= harnessMB
	e2e.harnessMB = harnessMB
	res.Attempted, res.Failed = e2e.attempted, e2e.failed
	if e2e.lateP99 > lateBoundMs {
		problems = append(problems, fmt.Sprintf("load generator ran late: p99 %.2f ms > %.0f ms bound", e2e.lateP99, lateBoundMs))
	}

	gt, gateProblems := gateRun(g0, sys, obsv, ld, traced)
	problems = append(problems, gateProblems...)

	if traced {
		problems = append(problems, layers(res.Metrics, sys, obsv, ld, e2e, gt)...)
	} else {
		for i := setupRounds / 2; i < setupRounds; i++ {
			if err := setUp(); err != nil {
				return nil, err
			}
		}
		endToEnd(res.Metrics, setups, e2e, w)
	}
	fmt.Printf("operations: attempted %d failed %d (%s)\n", res.Attempted, res.Failed, e2e.opsLine)
	if len(problems) > 0 {
		res.Correct = false
		fmt.Println("INCORRECT:", strings.Join(problems, "; "))
	} else {
		fmt.Println("correctness gate: passed")
	}
	return res, nil
}
