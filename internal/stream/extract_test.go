package stream

import (
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"rslpa/internal/core"
	"rslpa/internal/dynamic"
	"rslpa/internal/graph"
	"rslpa/internal/lfr"
	"rslpa/internal/obs"
	"rslpa/internal/postprocess"
)

// extractFixture runs the detector on a small LFR graph and returns it
// with a stream of count batches of size edits drawn against it.
func extractFixture(t *testing.T, count, size int) (*core.State, [][]graph.Edit) {
	t.Helper()
	params := lfr.Default(300)
	params.AvgDeg, params.MaxDeg = 8, 20
	gen, err := lfr.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.Run(gen.Graph, core.Config{T: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	batches, err := dynamic.Stream(gen.Graph.Clone(), size, count, 7)
	if err != nil {
		t.Fatal(err)
	}
	return st, batches
}

// With the evolution tier on, the maintenance goroutine extracts every
// epoch in order, so each one reweighs only its batch's edges; across
// two dozen epochs GET /communities must still equal the from-scratch
// extraction of the live detector, and every batch trace must say the
// extraction was incremental.
func TestIncrementalExtractionMatchesFromScratch(t *testing.T) {
	st, batches := extractFixture(t, 24, 10)
	ring := obs.NewTraceRing(64, 1)
	s, err := New(seqDet{st}, Options{FlushInterval: time.Hour, EvolutionDepth: 4, Trace: ring})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() { srv.Close(); s.Close() })

	for i, b := range batches {
		if err := s.Submit(b...); err != nil {
			t.Fatal(err)
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		var got struct {
			Epoch       uint64     `json:"epoch"`
			Tau1        float64    `json:"tau1"`
			Tau2        float64    `json:"tau2"`
			Entropy     float64    `json:"entropy"`
			Strong      int        `json:"strong"`
			Weak        int        `json:"weak"`
			Communities [][]uint32 `json:"communities"`
		}
		if code := getJSON(t, srv.URL+"/communities", &got); code != 200 {
			t.Fatalf("GET /communities = %d", code)
		}
		// Drain returned, so the detector is idle at this epoch.
		want, err := postprocess.Extract(st.Graph(), st.Labels, postprocess.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Epoch != uint64(i+1) {
			t.Fatalf("batch %d published epoch %d", i, got.Epoch)
		}
		if got.Tau1 != want.Tau1 || got.Tau2 != want.Tau2 || got.Entropy != want.Entropy ||
			got.Strong != want.Strong || got.Weak != want.Weak ||
			!reflect.DeepEqual(got.Communities, want.Cover.Communities()) {
			t.Fatalf("epoch %d: /communities diverges from postprocess.Extract", got.Epoch)
		}
	}

	traces := ring.Recent()
	if len(traces) != len(batches) {
		t.Fatalf("%d traces for %d batches", len(traces), len(batches))
	}
	for _, bt := range traces {
		sp, ok := spanNamed(bt.Spans, "evolution")
		if !ok || len(sp.Children) != 2 || sp.Children[0].Name != "extract" || sp.Children[1].Name != "diff" {
			t.Fatalf("epoch %d: evolution span %+v, want children extract and diff", bt.Epoch, sp)
		}
		if sum := sp.Children[0].Micros + sp.Children[1].Micros; sum > sp.Micros {
			t.Errorf("epoch %d: children sum %dµs exceeds the evolution span's %dµs", bt.Epoch, sum, sp.Micros)
		}
		ex := sp.Children[0].Attrs
		if ex["incremental"] != 1 || ex["rows_reencoded"] < 1 || ex["edges_reweighed"] < 1 ||
			ex["edges_reweighed"] >= int64(st.Graph().NumEdges()) {
			t.Errorf("epoch %d: extract attrs %v, want an incremental pass over part of %d edges",
				bt.Epoch, ex, st.Graph().NumEdges())
		}
	}
}

func spanNamed(spans []obs.Span, name string) (obs.Span, bool) {
	for _, sp := range spans {
		if sp.Name == name {
			return sp, true
		}
	}
	return obs.Span{}, false
}

// The extractor picks its path from epoch adjacency alone: the next epoch
// goes incremental, a skipped epoch and an unknown dirty set rebuild
// every row, and an older epoch extracts in full without moving the rows.
// Every path must equal from-scratch extraction of the same snapshot.
func TestExtractorFallbacks(t *testing.T) {
	st, batches := extractFixture(t, 6, 10)
	det := &switchDet{seqDet: seqDet{st}}
	s, err := New(det, Options{FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	snaps := []*Snapshot{s.Snapshot()}
	for i, b := range batches {
		det.hideDirty = i == 4
		if err := s.Submit(b...); err != nil {
			t.Fatal(err)
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, s.Snapshot())
	}

	for _, step := range []struct {
		epoch       int
		incremental bool
	}{
		{1, false}, // never synced
		{2, true},
		{4, false}, // skipped epoch 3
		{3, false}, // older: private scratch
		{5, false}, // unknown dirty set
		{6, true},
	} {
		sn := snaps[step.epoch]
		got, err := sn.Communities()
		if err != nil {
			t.Fatal(err)
		}
		want, err := postprocess.Extract(sn, sn.Labels, sn.pcfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d: extraction diverges from postprocess.Extract", step.epoch)
		}
		if sn.reweigh.Incremental != step.incremental {
			t.Errorf("epoch %d: incremental = %v, want %v", step.epoch, sn.reweigh.Incremental, step.incremental)
		}
	}
}

// switchDet reports no dirty set — the Detector contract's "unknown" —
// for the batches applied while hideDirty is set.
type switchDet struct {
	seqDet
	hideDirty bool
}

func (d *switchDet) Update(b []graph.Edit) (core.UpdateStats, error) {
	stats, err := d.seqDet.Update(b)
	if d.hideDirty {
		stats.Dirty = nil
	}
	return stats, err
}

// Readers extracting whatever epoch they hold race the maintenance
// goroutine's in-order extraction through the shared extractor; every
// extraction must still equal from-scratch extraction of its snapshot.
func TestExtractorConcurrentReaders(t *testing.T) {
	st, batches := extractFixture(t, 16, 10)
	s, err := New(seqDet{st}, Options{FlushInterval: time.Hour, EvolutionDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []*Snapshot
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sn := s.Snapshot()
				if i%3 == 2 && len(held) > 0 {
					sn = held[i%len(held)] // an older epoch
				} else {
					held = append(held, sn)
				}
				got, err := sn.Communities()
				if err != nil {
					t.Error(err)
					return
				}
				want, err := postprocess.Extract(sn, sn.Labels, sn.pcfg)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("epoch %d: concurrent extraction diverges from postprocess.Extract", sn.Epoch())
					return
				}
			}
		}()
	}
	for _, b := range batches {
		if err := s.Submit(b...); err != nil {
			t.Fatal(err)
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
