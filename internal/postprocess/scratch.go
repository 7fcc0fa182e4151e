package postprocess

import (
	"math"

	"rslpa/internal/cover"
)

// ExtractScratch owns the reusable buffers of the extraction pipeline: the
// RLE label histograms, the per-vertex incident-weight maxima, the compact
// vertex index, and the weighted-edge buffer — everything EdgeWeights,
// Tau2Of and the Extract* assembly used to reallocate (as maps) on every
// call. A caller that extracts repeatedly against an evolving graph (the
// streaming service's per-epoch extraction) keeps one scratch and passes it
// through the method forms; the package-level functions allocate a private
// scratch per call, so their behavior is unchanged.
//
// The per-vertex tables are dense slices keyed by raw vertex ID and
// validated by a generation stamp: a pass bumps the generation instead of
// clearing, entries from earlier passes are invisible, and the tables grow
// monotonically with the ID space. Results never alias scratch memory
// (covers copy their member lists), so a scratch may be reused for a
// different graph immediately after a call returns — but the edge slice
// returned by the EdgeWeights method is scratch-owned and only valid until
// the next use.
//
// ExtractDirty additionally keeps state across calls: the RLE runs of
// every present vertex and the weighted edges as per-vertex rows, so the
// next epoch recomputes only what its dirty set touched (see
// ExtractDirty). Any other use of the scratch invalidates those rows and
// makes the next ExtractDirty call rebuild them in full.
//
// A scratch must not be used concurrently.
type ExtractScratch struct {
	gen uint32 // current pass generation (0 = never used)

	idxGen []uint32
	idx    []int32 // compact index: position in the pass's vertex list

	encGen  []uint32
	encoded [][]uint32 // RLE (label, count) runs per vertex, buffers reused

	maxGen     []uint32
	maxW       []float64 // max incident edge weight per vertex
	maxTouched []uint32  // vertices with a valid maxW entry this pass

	sortBuf []uint32       // EncodeRuns sorting scratch
	edges   []WeightedEdge // EdgeWeights / ExtractDirty edge list buffer
	commOf  []int32        // strong-community id per compact vertex

	// Persistent ExtractDirty state. rows[u] holds the weighted edges
	// (u, v) with v > u, so concatenating the rows in ascending u yields
	// EdgeWeights' edge set; encoded then holds the current runs of every
	// present vertex. rowsValid says both describe the graph of the
	// previous ExtractDirty call, weighed with rowsMetric.
	rows       [][]WeightedEdge
	rowsValid  bool
	rowsMetric WeightMetric
	dirtyBuf   []uint32 // distinct dirty vertices of the current pass
	patchGen   []uint32
	patch      []uint32 // clean vertices whose rows hold a dirty endpoint
}

// bump starts a new pass over one of the stamped tables. On the
// once-in-4-billion uint32 wraparound every stamp table is hard-cleared so
// a stale stamp can never alias a live one.
func (sc *ExtractScratch) bump() uint32 {
	sc.gen++
	if sc.gen == 0 {
		clear(sc.idxGen)
		clear(sc.encGen)
		clear(sc.maxGen)
		sc.gen = 1
	}
	return sc.gen
}

// growTo extends s with zero values to cover n entries.
func growTo[T any](s []T, n int) []T {
	if n > len(s) {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// EdgeWeights is the scratch-backed form of the package-level EdgeWeights:
// identical weights, but the RLE histograms live in the scratch's reusable
// per-vertex table and the returned slice is scratch-owned (valid until the
// scratch's next use).
func (sc *ExtractScratch) EdgeWeights(g GraphView, labels LabelSeq, metric WeightMetric) []WeightedEdge {
	sc.rowsValid = false // encoded is about to describe g, not the rows' graph
	gen := sc.bump()
	n := g.NumVertices() // lower bound; encode grows past it as needed
	sc.encGen = growTo(sc.encGen, n)
	sc.encoded = growTo(sc.encoded, n)
	sc.edges = sc.edges[:0]
	g.ForEachEdge(func(u, v uint32) {
		w := weightOf(sc.encode(u, labels, gen), sc.encode(v, labels, gen), metric)
		sc.edges = append(sc.edges, WeightedEdge{U: u, V: v, W: w})
	})
	return sc.edges
}

// weightOf is w_uv from the endpoints' runs (u the smaller ID, as
// ForEachEdge orients edges): the one weight formula both the full and
// the dirty-set path use, which keeps them bit-identical.
func weightOf(ru, rv []uint32, metric WeightMetric) float64 {
	common := CommonRuns(ru, rv, metric)
	lu := float64(sumRuns(ru))
	if metric == SameLabelProbability {
		return float64(common) / (lu * float64(sumRuns(rv)))
	}
	return float64(common) / lu
}

// ReweighStats reports how much of the weighted edge set one ExtractDirty
// call recomputed.
type ReweighStats struct {
	Incremental    bool // false: every row was rebuilt from scratch
	RowsReencoded  int  // vertices whose label runs were re-encoded
	EdgesReweighed int  // edge weights computed
}

// ExtractDirty is Extract for a caller that follows one evolving graph
// epoch by epoch. dirty must list every vertex whose adjacency or label
// sequence changed since the graph of the scratch's previous ExtractDirty
// call (core.UpdateStats.Dirty of the batch in between); nil means
// unknown, and rebuilds every row — as does a first call, a changed
// metric, or any other use of the scratch in between. Only the dirty
// vertices are re-encoded and only the edges with a dirty endpoint are
// reweighed: an edge's weight depends on nothing but its endpoints' label
// sequences, and a clean vertex's neighbor set (hence its row) is
// unchanged. The rows, concatenated in ascending vertex order, go to the
// unchanged τ₂ / τ₁ / forest assembly. That list holds exactly
// EdgeWeights' edges, in ForEachEdge order except where a batch deleted
// and re-inserted an edge of a clean vertex (the pair cancels out of the
// dirty set but moves the edge within the adjacency). The assembly does
// not depend on edge order, so the Result is bit-identical to Extract on
// the same graph and labels.
func (sc *ExtractScratch) ExtractDirty(g AdjacencyView, labels LabelSeq, dirty []uint32, cfg Config) (*Result, ReweighStats, error) {
	st := sc.reweigh(g, labels, dirty, cfg.Metric)
	if g.NumVertices() == 0 {
		return &Result{Cover: cover.New(0)}, st, nil
	}
	res, err := sc.ExtractFromWeights(g, sc.edges, cfg)
	return res, st, err
}

// reweigh brings the rows and runs up to g (see ExtractDirty) and
// concatenates the rows into sc.edges.
func (sc *ExtractScratch) reweigh(g AdjacencyView, labels LabelSeq, dirty []uint32, metric WeightMetric) ReweighStats {
	gen := sc.bump()
	var st ReweighStats
	sc.dirtyBuf = sc.dirtyBuf[:0]
	if dirty == nil || !sc.rowsValid || sc.rowsMetric != metric {
		for u := range sc.rows {
			sc.rows[u] = sc.rows[u][:0]
		}
		dirty = g.Vertices()
	} else {
		st.Incremental = true
	}
	// Re-encode first: rows read both endpoints' runs, and the stamp
	// marks the pass's dirty vertices.
	for _, v := range dirty {
		sc.encGen = growTo(sc.encGen, int(v)+1)
		if sc.encGen[v] != gen {
			sc.encode(v, labels, gen)
			sc.dirtyBuf = append(sc.dirtyBuf, v)
		}
	}
	st.RowsReencoded = len(sc.dirtyBuf)
	sc.patchGen = growTo(sc.patchGen, len(sc.encGen))
	sc.patch = sc.patch[:0]
	for _, u := range sc.dirtyBuf {
		st.EdgesReweighed += sc.buildRow(g, u, metric)
		if !st.Incremental {
			continue
		}
		for _, x := range g.Neighbors(u) {
			if x < u && sc.encGen[x] != gen && sc.patchGen[x] != gen {
				sc.patchGen[x] = gen
				sc.patch = append(sc.patch, x)
			}
		}
	}
	// A clean vertex's row holds the right edges; only its entries
	// towards dirty endpoints are stale.
	for _, u := range sc.patch {
		row, ru := sc.rows[u], sc.encoded[u]
		for i := range row {
			if v := row[i].V; sc.encGen[v] == gen {
				row[i].W = weightOf(ru, sc.encoded[v], metric)
				st.EdgesReweighed++
			}
		}
	}
	sc.edges = sc.edges[:0]
	for _, row := range sc.rows {
		sc.edges = append(sc.edges, row...)
	}
	sc.rowsValid, sc.rowsMetric = true, metric
	return st
}

// buildRow recomputes u's row from its adjacency in g and returns the
// number of weights computed. Every endpoint's runs must be current.
func (sc *ExtractScratch) buildRow(g AdjacencyView, u uint32, metric WeightMetric) int {
	sc.rows = growTo(sc.rows, int(u)+1)
	row, ru := sc.rows[u][:0], sc.encoded[u]
	for _, v := range g.Neighbors(u) {
		if v > u {
			row = append(row, WeightedEdge{U: u, V: v, W: weightOf(ru, sc.encoded[v], metric)})
		}
	}
	sc.rows[u] = row
	return len(row)
}

// encode RLE-encodes v's label sequence into its reusable table slot,
// memoized per pass.
func (sc *ExtractScratch) encode(v uint32, labels LabelSeq, gen uint32) []uint32 {
	sc.encGen = growTo(sc.encGen, int(v)+1)
	sc.encoded = growTo(sc.encoded, int(v)+1)
	if sc.encGen[v] == gen {
		return sc.encoded[v]
	}
	sc.encoded[v], sc.sortBuf = appendRuns(sc.encoded[v][:0], sc.sortBuf, labels(v))
	sc.encGen[v] = gen
	return sc.encoded[v]
}

// Tau2Of is the scratch-backed form of the package-level Tau2Of (Equation
// 2): the per-vertex maxima live in the scratch's dense table instead of a
// map.
func (sc *ExtractScratch) Tau2Of(edges []WeightedEdge) float64 {
	return sc.tau2OfEdges(edges)
}

func (sc *ExtractScratch) tau2OfEdges(parts ...[]WeightedEdge) float64 {
	gen := sc.bump()
	sc.maxTouched = sc.maxTouched[:0]
	for _, part := range parts {
		for _, e := range part {
			sc.seeMax(e.U, e.W, gen)
			sc.seeMax(e.V, e.W, gen)
		}
	}
	tau2 := math.Inf(1)
	for _, v := range sc.maxTouched {
		if sc.maxW[v] < tau2 {
			tau2 = sc.maxW[v]
		}
	}
	if math.IsInf(tau2, 1) {
		return 0
	}
	return tau2
}

func (sc *ExtractScratch) seeMax(v uint32, w float64, gen uint32) {
	sc.maxGen = growTo(sc.maxGen, int(v)+1)
	sc.maxW = growTo(sc.maxW, int(v)+1)
	if sc.maxGen[v] != gen {
		sc.maxGen[v] = gen
		sc.maxW[v] = w
		sc.maxTouched = append(sc.maxTouched, v)
		return
	}
	if w > sc.maxW[v] {
		sc.maxW[v] = w
	}
}

// indexVertices builds the pass's compact vertex index (ids[i] <-> i) in
// the scratch's stamped table and returns a lookup closure for it.
func (sc *ExtractScratch) indexVertices(ids []uint32) func(uint32) int32 {
	gen := sc.bump()
	maxID := 0
	for _, v := range ids {
		if int(v) >= maxID {
			maxID = int(v) + 1
		}
	}
	sc.idxGen = growTo(sc.idxGen, maxID)
	sc.idx = growTo(sc.idx, maxID)
	for i, v := range ids {
		sc.idxGen[v] = gen
		sc.idx[v] = int32(i)
	}
	return func(v uint32) int32 { return sc.idx[v] }
}

// Extract is the scratch-backed form of the package-level Extract: the full
// pipeline with every intermediate table reused from the scratch.
func (sc *ExtractScratch) Extract(g GraphView, labels LabelSeq, cfg Config) (*Result, error) {
	if g.NumVertices() == 0 {
		return &Result{Cover: cover.New(0)}, nil
	}
	edges := sc.EdgeWeights(g, labels, cfg.Metric)
	return sc.ExtractFromWeights(g, edges, cfg)
}

// ExtractFromWeights is the scratch-backed form of the package-level
// ExtractFromWeights.
func (sc *ExtractScratch) ExtractFromWeights(g GraphView, edges []WeightedEdge, cfg Config) (*Result, error) {
	tau2 := cfg.Tau2
	if tau2 == 0 {
		tau2 = sc.Tau2Of(edges)
	}
	return sc.extractFromForest(g, edges, edges, tau2, MaxWeight(edges), cfg)
}

// ExtractPartitioned is the scratch-backed form of the package-level
// ExtractPartitioned: τ₂ is resolved over the parts without flattening
// them, and the assembly shares the scratch's tables.
func (sc *ExtractScratch) ExtractPartitioned(g GraphView, parts [][]WeightedEdge, cfg Config) (*Result, error) {
	if g.NumVertices() == 0 {
		return &Result{Cover: cover.New(0)}, nil
	}
	tau2 := cfg.Tau2
	if tau2 == 0 {
		tau2 = sc.tau2OfEdges(parts...)
	}
	maxWeight := 0.0
	var forest, attach []WeightedEdge
	for _, part := range parts {
		forest = append(forest, ReduceForest(part, tau2)...)
		for _, e := range part {
			if e.W >= tau2 {
				attach = append(attach, e)
			}
			if e.W > maxWeight {
				maxWeight = e.W
			}
		}
	}
	forest = ReduceForest(forest, tau2)
	return sc.extractFromForest(g, forest, attach, tau2, maxWeight, cfg)
}
