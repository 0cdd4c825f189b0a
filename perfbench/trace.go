package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at the root
	Run    uint64 `json:"run"`
}

// tracer keeps spans in memory; write saves them when the run ends. A
// nil *tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	mu    sync.Mutex
	run   uint64
	epoch time.Time
	spans []span
}

func newTracer(run uint64) *tracer {
	return &tracer{run: run, epoch: time.Now(), spans: make([]span, 0, 1<<12)}
}

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Run: t.run})
	t.mu.Unlock()
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	d := now - t.spans[id].Start
	t.mu.Unlock()
	return time.Duration(d)
}

// durations returns the durations of every closed span with this name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval covered by its children
// (children may overlap, as concurrent cells do; their union counts once).
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			cs := t.spans[c]
			if cs.End < 0 {
				continue
			}
			ivs = append(ivs, [2]int64{max(cs.Start, s.Start), min(cs.End, s.End)})
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered(ivs))
	}
	return out
}

// covered returns the length of the union of intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curS, curE int64
	open := false
	for _, iv := range ivs {
		if iv[1] <= iv[0] {
			continue
		}
		if !open || iv[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = iv[0], iv[1], true
			continue
		}
		curE = max(curE, iv[1])
	}
	if open {
		total += curE - curS
	}
	return total
}

// write saves every span as one JSON object per line, followed by the
// self-time table, to dir/<workload>-<seed>.jsonl, and prints the table.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# self %-34s %12.3f ms\n", n, ms(self[n]))
		if err := enc.Encode(map[string]any{"self": n, "ms": ms(self[n]), "run": t.run}); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
