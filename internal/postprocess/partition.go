package postprocess

import (
	"slices"
)

// This file is the partition-aware half of the extraction pipeline: the
// pieces that let P workers each hold a share of the weighted edges and
// still produce a Result bit-identical to ExtractFromWeights on the union.
//
// The enabling observation is the classic spanning-forest reduction from
// distributed MST: a maximum-weight spanning forest of any edge subset
// preserves connectivity at EVERY threshold τ. If an edge (u,v,w) is
// dropped by the forest, its endpoints are connected by kept edges of
// weight ≥ w, so filtering at any τ ≤ w leaves u and v connected either
// way. Since the τ₁ entropy sweep, the strong components, and the entropy
// value all depend only on the component structure per threshold, each
// worker can reduce its O(|E|/P) edges to an O(|V|) forest, forests can be
// re-reduced pairwise up an aggregation tree, and the master's selection on
// the final forest matches the sequential selection on all edges exactly.

// ReduceForestBy is the Kruskal kernel shared by ReduceForest and the
// distributed driver's integer-count variant: keep the edges that merge
// two components when processed heaviest-first. include filters the
// candidates, heavier orders them descending (ties broken by endpoints for
// a canonical result), endpoints names an edge's vertices. An edge is
// dropped iff it is the lightest edge of a cycle among edges at least as
// heavy, so the kept forest preserves connectivity at every threshold the
// filter admits.
func ReduceForestBy[E any](edges []E, include func(E) bool, heavier func(a, b E) bool, endpoints func(E) (uint32, uint32)) []E {
	cand := make([]E, 0, len(edges))
	for _, e := range edges {
		if include(e) {
			cand = append(cand, e)
		}
	}
	slices.SortFunc(cand, func(a, b E) int {
		if heavier(a, b) {
			return -1
		}
		if heavier(b, a) {
			return 1
		}
		return 0
	})
	index := make(map[uint32]int32, 2*len(cand))
	dense := func(v uint32) int {
		if i, ok := index[v]; ok {
			return int(i)
		}
		i := int32(len(index))
		index[v] = i
		return int(i)
	}
	uf := NewUnionFind(2 * len(cand))
	kept := cand[:0]
	for _, e := range cand {
		u, v := endpoints(e)
		if _, merged := uf.Union(dense(u), dense(v)); merged {
			kept = append(kept, e)
		}
	}
	return kept
}

// ReduceForest returns a maximum-weight spanning forest of the edges with
// W ≥ tau2: the minimal subset preserving connectivity at every threshold
// τ ≥ tau2. Output is canonical — sorted by weight descending, ties by
// (U, V) ascending — so the reduction is deterministic for a given edge
// multiset regardless of input order. Reduction composes: reducing the
// concatenation of already-reduced parts is again connectivity-preserving,
// which is how the distributed gather re-reduces at every tree level.
func ReduceForest(edges []WeightedEdge, tau2 float64) []WeightedEdge {
	return ReduceForestBy(edges,
		func(e WeightedEdge) bool { return e.W >= tau2 },
		func(a, b WeightedEdge) bool {
			if a.W != b.W {
				return a.W > b.W
			}
			if a.U != b.U {
				return a.U < b.U
			}
			return a.V < b.V
		},
		func(e WeightedEdge) (uint32, uint32) { return e.U, e.V })
}

// ExtractPartitioned is ExtractFromWeights for edge sets split across P
// parts, structured exactly like the distributed post-processing: resolve
// τ₂ from per-part vertex maxima, reduce each part to its spanning forest,
// re-reduce the merged forests, and assemble from the forest plus per-part
// attachment candidates. It returns bit-identical Results to
// ExtractFromWeights on the concatenation of the parts, which the tests
// pin; internal/dist runs the same plan over the wire.
func ExtractPartitioned(g GraphView, parts [][]WeightedEdge, cfg Config) (*Result, error) {
	return new(ExtractScratch).ExtractPartitioned(g, parts, cfg)
}
