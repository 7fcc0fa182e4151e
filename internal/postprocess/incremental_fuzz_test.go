package postprocess

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"rslpa/internal/core"
	"rslpa/internal/graph"
)

// FuzzIncrementalExtract is the equivalence oracle of the dirty-set
// extraction: a random graph evolves through random batches (edge edits,
// brand-new vertex IDs, self-loops, occasional vertex removals) applied by
// core.State.Update, and at every extracted epoch ExtractDirty fed the
// batch's UpdateStats.Dirty must return a Result and an edge list
// bit-identical to the from-scratch Extract and EdgeWeights, while
// reweighing exactly the edges with a dirty endpoint. Epochs are skipped at
// random (the next extraction then resyncs with a nil dirty set, as the
// streaming service does), and some epochs resync with nil on purpose. CI
// runs it with a fixed 10s budget beside the other fuzz targets.
func FuzzIncrementalExtract(f *testing.F) {
	f.Add(uint64(1), uint8(17), uint8(6), uint8(0))
	f.Add(uint64(42), uint8(4), uint8(9), uint8(1))
	f.Add(uint64(7), uint8(29), uint8(3), uint8(0))
	f.Add(uint64(1234567), uint8(0), uint8(11), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, tRaw, bRaw, mRaw uint8) {
		T := 3 + int(tRaw%30)
		nBatches := 2 + int(bRaw%12)
		cfg := Config{Metric: WeightMetric(mRaw % 2)}
		rnd := rand.New(rand.NewPCG(seed, 0x2545f4914f6cdd1d))

		n := 12 + int(seed%48)
		g := graph.New()
		for i := 0; i < 3*n; i++ {
			if u, v := uint32(rnd.IntN(n)), uint32(rnd.IntN(n)); u != v {
				g.AddEdge(u, v)
			}
		}
		st, err := core.Run(g, core.Config{T: T, Seed: seed ^ 0xfeedface})
		if err != nil {
			t.Fatal(err)
		}

		sc := new(ExtractScratch)
		check := func(epoch int, dirty []uint32, wantIncremental bool) {
			t.Helper()
			got, rs, err := sc.ExtractDirty(st.Graph(), st.Labels, dirty, cfg)
			want, werr := Extract(st.Graph(), st.Labels, cfg)
			if (err != nil) != (werr != nil) {
				t.Fatalf("epoch %d: ExtractDirty err %v, Extract err %v", epoch, err, werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("epoch %d: ExtractDirty %+v, Extract %+v", epoch, got, want)
			}
			// The edge list is compared as a multiset: a batch that deletes
			// and re-inserts an edge moves it within its endpoints'
			// adjacency without dirtying them (the pair cancels), so a
			// clean row may keep the older order. Extraction does not
			// depend on edge order.
			if gotEdges, wantEdges := sortedEdges(sc.edges), sortedEdges(EdgeWeights(st.Graph(), st.Labels, cfg.Metric)); !slices.Equal(gotEdges, wantEdges) {
				t.Fatalf("epoch %d: dirty edge list diverges from EdgeWeights (%d vs %d edges)", epoch, len(gotEdges), len(wantEdges))
			}
			if rs.Incremental != wantIncremental {
				t.Fatalf("epoch %d: Incremental = %v, want %v", epoch, rs.Incremental, wantIncremental)
			}
			if !wantIncremental {
				if rs.EdgesReweighed != st.Graph().NumEdges() {
					t.Fatalf("epoch %d: full rebuild reweighed %d of %d edges", epoch, rs.EdgesReweighed, st.Graph().NumEdges())
				}
				return
			}
			touched := 0
			st.Graph().ForEachEdge(func(u, v uint32) {
				if slices.Contains(dirty, u) || slices.Contains(dirty, v) {
					touched++
				}
			})
			if rs.EdgesReweighed != touched {
				t.Fatalf("epoch %d: reweighed %d edges, %d have a dirty endpoint", epoch, rs.EdgesReweighed, touched)
			}
		}

		check(0, nil, false)
		skipped := false
		for epoch := 1; epoch <= nBatches; epoch++ {
			var stats core.UpdateStats
			if rnd.IntN(8) == 0 {
				stats, _ = st.RemoveVertex(uint32(rnd.IntN(n)))
			} else {
				batch := make([]graph.Edit, 1+rnd.IntN(8))
				for i := range batch {
					op := graph.Insert
					if rnd.IntN(2) == 1 {
						op = graph.Delete
					}
					// IDs slightly past n add vertices; equal endpoints
					// exercise the self-loop rejection.
					batch[i] = graph.Edit{Op: op, U: uint32(rnd.IntN(n + 4)), V: uint32(rnd.IntN(n + 4))}
				}
				stats = st.Update(batch)
			}
			switch mode := rnd.IntN(6); {
			case mode == 0:
				skipped = true // no extraction at this epoch
			case mode == 1 || skipped:
				check(epoch, nil, false) // nil-Dirty resync, or the epoch after a skip
				skipped = false
			default:
				dirty := stats.Dirty
				if dirty == nil {
					dirty = []uint32{} // a batch that changed nothing
				}
				check(epoch, dirty, true)
			}
		}
	})
}

// sortedEdges returns a copy of edges in (U, V) order.
func sortedEdges(edges []WeightedEdge) []WeightedEdge {
	out := slices.Clone(edges)
	slices.SortFunc(out, func(a, b WeightedEdge) int {
		if a.U != b.U {
			return int(a.U) - int(b.U)
		}
		return int(a.V) - int(b.V)
	})
	return out
}
