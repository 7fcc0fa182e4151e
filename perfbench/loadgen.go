package main

import (
	"bytes"
	"strconv"
	"time"
)

// opResult is the outcome of one scheduled request.
type opResult struct {
	Lat float64 // ms from the scheduled send time to the full response
	OK  bool
	// Late is how many ms after its scheduled time the generator woke to
	// send, measured only when the connection was already free at that
	// time (-1 otherwise: the system under test, not the generator, held
	// the request back, and Lat already charges that wait).
	Late float64
	// Epoch is the epoch the response carried (HasEpoch false for none).
	Epoch    uint64
	HasEpoch bool
}

// reply is what a send reports: when the response was complete (parsing
// after that instant is not charged to the request) and its epoch.
type reply struct {
	End      time.Time
	Epoch    uint64
	HasEpoch bool
	Err      error
}

// openLoop sends n requests on one connection, request i at base+due(i)
// regardless of how earlier ones fared (open loop), and times each from
// its scheduled send time. A failed request is charged the request
// timeout, so it misses every latency limit. Requests still unsent at end
// (the system held the connection past the window) are dropped: only the
// results of the requests sent are returned, in schedule order.
func openLoop(base, end time.Time, n int, due func(i int) time.Duration, send func(i int) reply) []opResult {
	out := make([]opResult, n)
	for i := range out {
		if !time.Now().Before(end) {
			return out[:i]
		}
		at := base.Add(due(i))
		late := -1.0
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
			late = ms(time.Since(at))
		}
		r := send(i)
		lat := ms(r.End.Sub(at))
		if r.Err != nil {
			lat = ms(requestTimeout)
		}
		out[i] = opResult{Lat: lat, OK: r.Err == nil, Late: late, Epoch: r.Epoch, HasEpoch: r.HasEpoch}
	}
	return out
}

// jsonUint finds the first `"key":<digits>` in a JSON body. Responses
// carry their epoch under a fixed key; scanning for it avoids decoding a
// multi-megabyte community list just to read one number.
func jsonUint(body []byte, key string) (uint64, bool) {
	pat := []byte(`"` + key + `":`)
	i := bytes.Index(body, pat)
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(pat):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	v, err := strconv.ParseUint(string(rest[:j]), 10, 64)
	return v, err == nil
}
