package main

import (
	"encoding/json"
	"os"
	"time"
)

// tracer keeps the spans of a traced run in memory; they are written as
// Chrome trace-event JSON when the run ends. A nil tracer records
// nothing, so untraced rounds pay only the nil checks.
type tracer struct {
	t0    time.Time
	spans []span
}

// span is one timed call into a layer. parent indexes the enclosing span
// (-1 for a round).
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns its index for close and for children.
func (t *tracer) open(name string, parent int, at time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: at.Sub(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) close(i int, at time.Time) {
	if t != nil {
		t.spans[i].end = at.Sub(t.t0)
	}
}

// leaf records a span with no children.
func (t *tracer) leaf(name string, parent int, from, to time.Time) {
	t.close(t.open(name, parent, from), to)
}

// selfTimes returns each span's duration minus the time its direct
// children cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// selfByName sums self time per span name.
func (t *tracer) selfByName() map[string]time.Duration {
	out := map[string]time.Duration{}
	for i, d := range t.selfTimes() {
		out[t.spans[i].name] += d
	}
	return out
}

// writeChrome writes the spans as complete ("X") trace events on one
// track, so Perfetto and chrome://tracing nest them by time.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string             `json:"name"`
		Ph   string             `json:"ph"`
		Ts   float64            `json:"ts"`
		Dur  float64            `json:"dur"`
		Pid  int                `json:"pid"`
		Tid  int                `json:"tid"`
		Args map[string]float64 `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	self := t.selfTimes()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start),
			Pid: 1, Tid: 1, Args: map[string]float64{"self_us": us(self[i])}}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
