package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"time"

	"rslpa/internal/core"
	"rslpa/internal/graph"
	"rslpa/internal/postprocess"
)

// gateOut is what the correctness gate leaves for the traced run: the
// reference detector at the final epoch and its per-batch replay cost.
type gateOut struct {
	ref      *core.State
	replayMs []float64
	offline  offlineLayers
}

// gateRun is the correctness gate, run after the timed window. It replays
// the journaled canonical batches, in epoch order, through a fresh
// core.Run + State.Update reference and requires, at the final epoch:
// bit-identical label sequences for every vertex on the writer and on the
// follower, and GET /communities equal to postprocess.Extract on the
// reference. With evolution on, the /events pages read during the run
// must cover their epochs without a gap. The traced run also times the
// extraction and evolution layers on the last epochs of the replay.
func gateRun(g0 *graph.Graph, sys *system, o *observer, ld *load, traced bool) (gateOut, []string) {
	var out gateOut
	var problems []string
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }

	final := sys.svc.Snapshot().Epoch()
	batches := o.feed.batches
	if uint64(len(batches)) != final {
		fail("journal record holds %d batches, writer is at epoch %d", len(batches), final)
		return out, problems
	}
	ref, err := core.Run(g0, core.Config{T: detectorT, Seed: detectorSeed})
	if err != nil {
		fail("reference run: %v", err)
		return out, problems
	}
	for i, edits := range batches {
		t0 := time.Now()
		ref.Update(edits)
		out.replayMs = append(out.replayMs, ms(time.Since(t0)))
		if traced && uint64(i+1)+offlineEpochs > final {
			out.offline.epoch(ref)
		}
	}
	out.ref = ref
	if ref.Epoch() != final {
		fail("reference reached epoch %d, writer %d", ref.Epoch(), final)
	}

	wsn, fsn := sys.svc.Snapshot(), sys.fol.Snapshot()
	if fsn.Epoch() != final {
		fail("follower at epoch %d, writer at %d", fsn.Epoch(), final)
	}
	n := ref.Graph().MaxVertexID()
	wbad, fbad := 0, 0
	for v := 0; v < n; v++ {
		want := ref.Labels(uint32(v))
		if !slices.Equal(wsn.Labels(uint32(v)), want) {
			wbad++
		}
		if !slices.Equal(fsn.Labels(uint32(v)), want) {
			fbad++
		}
	}
	if wbad > 0 {
		fail("writer labels differ from the reference on %d vertices", wbad)
	}
	if fbad > 0 {
		fail("follower labels differ from the reference on %d vertices", fbad)
	}

	c := newClient()
	defer c.close()
	body, _, err := c.do("GET", sys.wsrv.url+"/communities", nil)
	if err != nil {
		fail("GET /communities: %v", err)
		return out, problems
	}
	var got struct {
		Epoch       uint64     `json:"epoch"`
		Communities [][]uint32 `json:"communities"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		fail("decode /communities: %v", err)
		return out, problems
	}
	want, err := postprocess.Extract(ref.Graph(), ref.Labels, postprocess.Config{})
	if err != nil {
		fail("reference extraction: %v", err)
		return out, problems
	}
	if got.Epoch != final {
		fail("/communities at epoch %d, want %d", got.Epoch, final)
	}
	if !reflect.DeepEqual(got.Communities, want.Cover.Communities()) {
		fail("/communities differs from postprocess.Extract on the reference (%d vs %d communities)",
			len(got.Communities), len(want.Cover.Communities()))
	}
	problems = append(problems, eventGaps(ld.events)...)
	return out, problems
}

// eventGaps checks the /events pages read during the run: each page must
// carry events for exactly the epochs (from, writer], and each page must
// start no later than where the previous one ended.
func eventGaps(pages []eventsPage) []string {
	var problems []string
	for i, p := range pages {
		var want []uint64
		for e := p.From + 1; e <= p.Writer; e++ {
			want = append(want, e)
		}
		if !slices.Equal(p.Epochs, want) {
			problems = append(problems, fmt.Sprintf("/events?from=%d (writer epoch %d) returned epochs %v", p.From, p.Writer, p.Epochs))
		}
		if i > 0 && p.From > pages[i-1].Writer {
			problems = append(problems, fmt.Sprintf("/events skipped epochs %d..%d", pages[i-1].Writer+1, p.From))
		}
	}
	return problems
}
