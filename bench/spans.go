package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the layers themselves are not instrumented). Spans of one op share an
// op id; Parent is the index of the enclosing span in the recorder's list.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps a traced run's spans and boundary counts in memory until the
// run ends. The benchmark is a closed loop with one client, so the innermost
// open span is the parent of the next one. A nil recorder records nothing,
// which is what the untraced measurement passes.
type recorder struct {
	t0     time.Time
	spans  []span
	open   int // innermost open span, -1 when none
	ops    int
	counts map[string]int64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), open: -1, counts: map[string]int64{}}
}

// begin opens a span under the innermost open one. A span opened while none
// is open is a root and starts a new op id.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	if r.open < 0 {
		r.ops++
	}
	r.spans = append(r.spans, span{Name: name, Op: r.ops, Parent: r.open, Start: int64(time.Since(r.t0))})
	r.open = len(r.spans) - 1
	return r.open
}

// end closes span i, which must be the innermost open one.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	if i != r.open {
		panic(fmt.Sprintf("bench: span %d closed while %d is innermost", i, r.open))
	}
	r.spans[i].End = int64(time.Since(r.t0))
	r.open = r.spans[i].Parent
}

// add counts work done at a layer boundary (steps, records, candidates, …).
func (r *recorder) add(name string, n int64) {
	if r != nil {
		r.counts[name] += n
	}
}

// total is the summed duration of every span with the given name, in ns.
func (r *recorder) total(name string) float64 {
	var ns int64
	for i := range r.spans {
		if r.spans[i].Name == name {
			ns += r.spans[i].End - r.spans[i].Start
		}
	}
	return float64(ns)
}

// selfTimes returns, per span, its duration minus the time its children cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// checkNesting verifies the span tree: every span is closed, every child lies
// inside its parent and shares its op id, and no self time is negative.
func checkNesting(spans []span) error {
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %s ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= i {
			return fmt.Errorf("span %d %s has parent %d, not an earlier span", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %s [%d,%d] leaves parent %s [%d,%d]", i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		if s.Op != p.Op {
			return fmt.Errorf("span %d %s has op %d, parent has %d", i, s.Name, s.Op, p.Op)
		}
	}
	for i, ns := range selfTimes(spans) {
		if ns < 0 {
			return fmt.Errorf("span %d %s has self time %d ns", i, spans[i].Name, ns)
		}
	}
	return nil
}

// writeSpans dumps the traced run's spans and counts as JSON.
func writeSpans(path string, r *recorder) error {
	data, err := json.Marshal(struct {
		Spans  []span           `json:"spans"`
		Counts map[string]int64 `json:"counts"`
	}{r.spans, r.counts})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
