package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans live only in the benchmark: the program itself is not traced.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Op     int64  `json:"op"`       // workload cycle id, shared by the cycle's calls; -1 for probes
	N      int    `json:"n"`        // calls the span covers (probes time batches)
	Start  int64  `json:"start_ns"` // since the trace epoch
	End    int64  `json:"end_ns"`
}

// track records the spans of one goroutine; tracks are merged once the
// goroutines are done, so recording takes no lock.
type track struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indexes
}

func newTrack(epoch time.Time) *track { return &track{epoch: epoch} }

// begin opens a span under the innermost open one.
func (t *track) begin(name string, op int64, n int) {
	parent := -1
	if k := len(t.open); k > 0 {
		parent = t.open[k-1]
	}
	t.spans = append(t.spans, span{Parent: parent, Name: name, Op: op, N: n, Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *track) end() {
	idx := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[idx].End = int64(time.Since(t.epoch))
}

// trace is the merged span set of one traced run.
type trace struct {
	spans []span
}

// add appends spans whose ids and parents are indexes into spans,
// renumbering them into the trace's id space.
func (tr *trace) add(spans []span) {
	base := len(tr.spans)
	for i, s := range spans {
		s.ID = base + i
		if s.Parent >= 0 {
			s.Parent += base
		}
		tr.spans = append(tr.spans, s)
	}
}

// perCall returns, for every span name, the self time per covered call
// of each span, in nanoseconds. A span's self time is its duration minus
// the part its children cover; children of one span run one after
// another on the span's own goroutine, so they do not overlap.
func (tr *trace) perCall() map[string][]float64 {
	self := make([]int64, len(tr.spans))
	for i, s := range tr.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	by := make(map[string][]float64)
	for i, s := range tr.spans {
		by[s.Name] = append(by[s.Name], float64(self[i])/float64(max(s.N, 1)))
	}
	return by
}

// write dumps the spans as JSON.
func (tr *trace) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(tr.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}
