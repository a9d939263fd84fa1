package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Chrome trace-event export (the JSON array format understood by
// Perfetto and chrome://tracing). Each recorder becomes one process
// (pid = its merge index, process_name = its label); each simulated
// hardware thread becomes one thread track and each core's memory
// events a separate "core N mem" track. Committed atomic blocks are
// complete ("X") slices, aborted attempts are slices plus an instant
// event carrying the cause, the conflicting line and the aggressor
// thread. Timestamps are simulated cycles (the viewer's nominal unit is
// microseconds; only relative placement matters).
//
// The writer emits events in (recorder, track, emission) order with
// hand-rolled, field-ordered JSON, so the bytes are deterministic for a
// deterministic set of recorders — the -j1 / -j8 byte-identity
// guarantee extends to trace files.

// coreTrackBase offsets core-track tids above any hardware-thread tid.
const coreTrackBase = 100

// WriteChromeTrace writes every registered recorder as one Chrome
// trace-event JSON document. It fails, writing nothing, when the
// collector's recorders kept no event rings (see Collector.Rings).
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	if c != nil && !c.Rings {
		return errors.New("obs: chrome trace from a collector that keeps no event rings (set Rings)")
	}
	recs := c.Recorders()
	for _, r := range recs {
		if !r.rings {
			return fmt.Errorf("obs: chrome trace: recorder %q keeps no event rings", r.label)
		}
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ns\",\n\"traceEvents\":[")
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.WriteString(",")
		}
		bw.WriteString("\n")
		first = false
		fmt.Fprintf(bw, format, args...)
	}
	for pid, r := range recs {
		emit(`{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":%s}}`,
			pid, jstr(r.label))
		for tid := range r.threads {
			// The dropped count lets structural validators (tracecheck)
			// distinguish a truncated ring — whose kept stream may start
			// mid-span — from a genuinely unbalanced span sequence.
			emit(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s,"dropped":%d}}`,
				pid, tid, jstr(fmt.Sprintf("thread %d", tid)), r.threads[tid].dropped())
			r.threads[tid].each(func(e *Event) { writeThreadEvent(emit, r, pid, tid, e) })
		}
		for core := range r.cores {
			tid := coreTrackBase + core
			emit(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
				pid, tid, jstr(fmt.Sprintf("core %d mem", core)))
			r.cores[core].each(func(e *Event) {
				emit(`{"ph":"i","s":"t","pid":%d,"tid":%d,"ts":%d,"name":%s,"args":{"line":"0x%x"}}`,
					pid, tid, e.Cycle, jstr(e.Kind.String()), e.Arg)
			})
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

func writeThreadEvent(emit func(string, ...any), r *Recorder, pid, tid int, e *Event) {
	name := r.SiteName(e.Site)
	if name == "" {
		name = "tx"
	}
	switch e.Kind {
	case KTxCommit:
		emit(`{"ph":"X","pid":%d,"tid":%d,"ts":%d,"dur":%d,"name":%s,"args":{"retries":%d}}`,
			pid, tid, e.Start, e.Cycle-e.Start, jstr(name), e.Aux)
	case KTxAbort:
		emit(`{"ph":"X","pid":%d,"tid":%d,"ts":%d,"dur":%d,"name":%s,"args":{"cause":%s}}`,
			pid, tid, e.Start, e.Cycle-e.Start, jstr(name+" (aborted)"), jstr(e.Cause.String()))
		emit(`{"ph":"i","s":"t","pid":%d,"tid":%d,"ts":%d,"name":%s,"args":{"cause":%s,"line":"0x%x","by":%d}}`,
			pid, tid, e.Cycle, jstr("abort: "+e.Cause.String()), jstr(e.Cause.String()), e.Arg, e.Aux)
	case KTxBegin, KTxFallback:
		emit(`{"ph":"i","s":"t","pid":%d,"tid":%d,"ts":%d,"name":%s,"args":{"site":%s}}`,
			pid, tid, e.Cycle, jstr(e.Kind.String()), jstr(name))
	case KBackoff:
		emit(`{"ph":"i","s":"t","pid":%d,"tid":%d,"ts":%d,"name":"stm backoff","args":{"cycles":%d,"cause":%s}}`,
			pid, tid, e.Cycle, e.Arg, jstr(e.Cause.String()))
	default:
		emit(`{"ph":"i","s":"t","pid":%d,"tid":%d,"ts":%d,"name":%s,"args":{}}`,
			pid, tid, e.Cycle, jstr(e.Kind.String()))
	}
}

// jstr JSON-encodes a string (quotes + escapes).
func jstr(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
