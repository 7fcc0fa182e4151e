package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"rslpa"
	"rslpa/internal/graph"
	"rslpa/internal/obs"
	"rslpa/internal/replica"
	"rslpa/internal/stream"
)

// server serves one handler on a loopback port until close.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed once closed
	}()
	return s, nil
}

func (s *server) close() {
	s.srv.Close()
	<-s.done
}

// system is the serving system under test: a writer Service and one
// follower, each behind its own loopback HTTP server.
type system struct {
	svc       *rslpa.Service
	writer    http.Handler // the writer's handler, for in-process feed reads
	wsrv      *server
	fol       *replica.Follower
	fsrv      *server
	bootstrap time.Duration // replica.New, the follower's bootstrap
	// tickZero is when NewService returned, which is when the writer's
	// flush ticker started: it ticks at tickZero + k·flushInterval.
	tickZero time.Time
}

// startSystem is the measured set-up: Detect, NewService, the writer's
// listener, and a follower bootstrapped to the writer's epoch.
func startSystem(g *graph.Graph, w workload) (*system, error) {
	det, err := rslpa.Detect(g, rslpa.Config{T: detectorT, Seed: detectorSeed})
	if err != nil {
		return nil, fmt.Errorf("detect: %w", err)
	}
	svc, err := rslpa.NewService(det, rslpa.ServiceOptions{JournalDepth: journal, EvolutionDepth: w.evolution})
	if err != nil {
		det.Close()
		return nil, fmt.Errorf("new service: %w", err)
	}
	s := &system{svc: svc, writer: svc.Handler(), tickZero: time.Now()}
	if s.wsrv, err = serve(s.writer); err != nil {
		s.close()
		return nil, err
	}
	t0 := time.Now()
	s.fol, err = replica.New(replica.Options{
		WriterURL: s.wsrv.url,
		Obs:       obs.NewRegistry(),
		Trace:     obs.NewTraceRing(0, 0),
	})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("follower: %w", err)
	}
	s.bootstrap = time.Since(t0)
	if s.fsrv, err = serve(s.fol.Handler()); err != nil {
		s.close()
		return nil, err
	}
	if err := s.followerAt(svc.Snapshot().Epoch(), 30*time.Second); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// followerAt waits until the follower has published epoch.
func (s *system) followerAt(epoch uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for s.fol.Snapshot().Epoch() < epoch {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower stuck at epoch %d, writer at %d", s.fol.Snapshot().Epoch(), epoch)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (s *system) close() {
	if s.fol != nil {
		s.fol.Close()
	}
	if s.fsrv != nil {
		s.fsrv.close()
	}
	if s.wsrv != nil {
		s.wsrv.close()
	}
	s.svc.Close()
}

// feedFrom reads one page of the writer's replication journal in-process
// (no client connection): the canonical batches with epochs > from.
func (s *system) feedFrom(from uint64) (stream.FeedResponse, error) {
	req := httptest.NewRequest(http.MethodGet, "/feed?max=1024&from="+strconv.FormatUint(from, 10), nil)
	rec := httptest.NewRecorder()
	s.writer.ServeHTTP(rec, req)
	var resp stream.FeedResponse
	if rec.Code != http.StatusOK {
		return resp, fmt.Errorf("GET /feed?from=%d: status %d (journal horizon passed?)", from, rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return resp, fmt.Errorf("decode feed: %w", err)
	}
	return resp, nil
}

// feedLog accumulates the writer's journal during the run: the 1024-batch
// horizon is shorter than a run, so it is read every few hundred ms.
// batches[e-1] holds the edits of epoch e, kept in graph form so the
// record adds little to the heap the run samples.
type feedLog struct {
	batches [][]graph.Edit
	err     error
}

func (l *feedLog) catchUp(s *system) {
	if l.err != nil {
		return
	}
	for {
		from := uint64(len(l.batches))
		resp, err := s.feedFrom(from)
		if err != nil {
			l.err = err
			return
		}
		for _, b := range resp.Batches {
			if b.Epoch != uint64(len(l.batches))+1 {
				l.err = fmt.Errorf("feed gap: got epoch %d after %d", b.Epoch, len(l.batches))
				return
			}
			edits, err := b.GraphEdits()
			if err != nil {
				l.err = fmt.Errorf("feed batch %d: %w", b.Epoch, err)
				return
			}
			l.batches = append(l.batches, edits)
		}
		if len(resp.Batches) == 0 || uint64(len(l.batches)) >= resp.WriterEpoch {
			return
		}
	}
}

// client sends one stream's requests over a single keep-alive connection.
type client struct {
	hc *http.Client
}

const requestTimeout = 10 * time.Second

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the body of a 2xx response and the
// time it was complete.
func (c *client) do(method, url string, body []byte) ([]byte, time.Time, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, time.Now(), err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, time.Now(), err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		return nil, end, err
	}
	if resp.StatusCode/100 != 2 {
		return b, end, errors.New(method + " " + url + ": " + resp.Status)
	}
	return b, end, nil
}
