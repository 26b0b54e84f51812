package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one harness-timed call into a layer: a set-up phase, a RunFor
// slice or a sampling call. Times are nanoseconds since the child process
// started its workload.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for the root span
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory; it is written out only at the end of a
// traced run. Spans nest by call order: a span begun while another is open
// is its child.
type spanLog struct {
	base  time.Time
	spans []span
	open  []int
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

func (l *spanLog) begin(name string) int {
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, StartNS: int64(time.Since(l.base))})
	l.open = append(l.open, id)
	return id
}

func (l *spanLog) end(id int) {
	l.spans[id].EndNS = int64(time.Since(l.base))
	l.open = l.open[:len(l.open)-1]
}

// do runs fn inside a span called name.
func (l *spanLog) do(name string, fn func()) {
	id := l.begin(name)
	fn()
	l.end(id)
}

// seconds sums the durations of every span called name.
func (l *spanLog) seconds(name string) float64 {
	var ns int64
	for _, s := range l.spans {
		if s.Name == name {
			ns += s.EndNS - s.StartNS
		}
	}
	return float64(ns) / 1e9
}

func (l *spanLog) write(path string) error {
	data, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
