package main

import (
	"strconv"
	"time"

	"rslpa/internal/dynamic"
	"rslpa/internal/graph"
)

// drawEdits draws the run's whole edit stream against g with one call to
// dynamic.Batch: n/2 deletions of existing edges and n-n/2 insertions of
// absent ones, no edge twice, so every edit survives coalescing and lands
// in exactly one journaled batch. Batch returns the deletions first; they
// are interleaved with the insertions so every POST keeps the 50/50 mix.
// g is not modified.
func drawEdits(g *graph.Graph, n int, seed uint64) ([]graph.Edit, error) {
	b, err := dynamic.Batch(g, n, seed)
	if err != nil {
		return nil, err
	}
	dels, ins := b[:n/2], b[n/2:]
	out := make([]graph.Edit, 0, n)
	for i := range ins {
		if i < len(dels) {
			out = append(out, dels[i])
		}
		out = append(out, ins[i])
	}
	return out, nil
}

// post is one pre-encoded POST /edits request of the open-loop schedule.
type post struct {
	Due  time.Duration // offset from the run's start
	Body []byte        // JSON array of edits
	Keys []uint64      // graph.EdgeKey of each edit, in body order
}

// encodeEdits renders edits as the JSON array POST /edits accepts.
func encodeEdits(edits []graph.Edit) []byte {
	b := make([]byte, 0, 32*len(edits)+2)
	b = append(b, '[')
	for i, e := range edits {
		if i > 0 {
			b = append(b, ',')
		}
		op := "insert"
		if e.Op == graph.Delete {
			op = "delete"
		}
		b = append(b, `{"op":"`...)
		b = append(b, op...)
		b = append(b, `","u":`...)
		b = strconv.AppendUint(b, uint64(e.U), 10)
		b = append(b, `,"v":`...)
		b = strconv.AppendUint(b, uint64(e.V), 10)
		b = append(b, '}')
	}
	return append(b, ']')
}

// segment is a stretch of the edit schedule at one offered rate: Count
// POSTs of PerPost edits, one every Every from Start.
type segment struct {
	Start, Every   time.Duration
	PerPost, Count int
}

// buildPosts draws the whole run's edit stream and cuts it into the
// scheduled POSTs of segs, before any timing starts.
func buildPosts(g *graph.Graph, segs []segment, seed uint64) ([]post, error) {
	total := 0
	for _, s := range segs {
		total += s.Count * s.PerPost
	}
	edits, err := drawEdits(g, total, seed)
	if err != nil {
		return nil, err
	}
	var out []post
	for _, s := range segs {
		for i := 0; i < s.Count; i++ {
			chunk := edits[:s.PerPost]
			edits = edits[s.PerPost:]
			keys := make([]uint64, len(chunk))
			for j, e := range chunk {
				keys[j] = graph.EdgeKey(e.U, e.V)
			}
			out = append(out, post{Due: s.Start + time.Duration(i)*s.Every, Body: encodeEdits(chunk), Keys: keys})
		}
	}
	return out, nil
}
