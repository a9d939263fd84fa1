package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"unsafe"

	"rtmlab/internal/rng"
)

// TestStreamRing checks the chunked ring against a slice reference at
// limits around the chunk boundaries and unbounded: after every push
// count, events() must be the reference's last limit events, oldest
// first, and dropped() the rest.
func TestStreamRing(t *testing.T) {
	for _, limit := range []int{1, 4, chunkLen - 1, chunkLen, chunkLen + 1, 2*chunkLen + 5, 0} {
		s := &stream{limit: limit}
		var ref []Event
		check := func() {
			want := ref
			if limit > 0 && len(want) > limit {
				want = want[len(want)-limit:]
			}
			got := s.events()
			if len(got) != len(want) {
				t.Fatalf("limit %d after %d pushes: kept %d events, want %d", limit, len(ref), len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("limit %d after %d pushes: event %d = %+v, want %+v", limit, len(ref), i, got[i], want[i])
				}
			}
			if d := s.dropped(); d != uint64(len(ref)-len(want)) {
				t.Fatalf("limit %d after %d pushes: dropped = %d, want %d", limit, len(ref), d, len(ref)-len(want))
			}
		}
		check()
		n := 3*max(limit, chunkLen) + 7
		for i := 0; i < n; i++ {
			e := Event{Cycle: uint64(i), Arg: uint64(i) * 7, Site: int32(i % 5), Kind: Kind(i % int(NumKinds))}
			s.push(e)
			ref = append(ref, e)
			if i < 3 || i%97 == 0 || i == limit-1 || i == limit || i == limit+1 || i == n-1 {
				check()
			}
		}
	}
}

// TestStreamRingAllocs pins the ring's allocations: filling a bounded
// ring of limit L allocates exactly ceil(L/chunkLen) chunks plus the
// chunk index, the chunks hold exactly L events, and once the ring has
// wrapped a push allocates nothing.
func TestStreamRingAllocs(t *testing.T) {
	for _, limit := range []int{1, chunkLen - 1, chunkLen, chunkLen + 1, 2*chunkLen + 5} {
		chunks := (limit + chunkLen - 1) / chunkLen
		var s *stream
		fill := func() {
			s = &stream{limit: limit}
			for i := 0; i < limit; i++ {
				s.push(Event{Cycle: uint64(i)})
			}
		}
		// One more allocation for the stream itself.
		if n := testing.AllocsPerRun(5, fill); n != float64(chunks+2) {
			t.Errorf("limit %d: filling allocates %v times, want %d chunks + index + stream", limit, n, chunks)
		}
		held := 0
		for _, c := range s.chunks {
			held += len(c)
		}
		if len(s.chunks) != chunks || held != limit {
			t.Errorf("limit %d: %d chunks holding %d events, want %d holding %d", limit, len(s.chunks), held, chunks, limit)
		}
		s.push(Event{}) // wrap
		if n := testing.AllocsPerRun(100, func() { s.push(Event{Cycle: 1}) }); n != 0 {
			t.Errorf("limit %d: push on a wrapped ring allocates %v times", limit, n)
		}
	}
}

// FuzzCountOnlyVsRing feeds one random event sequence to a recorder that
// keeps event rings and to a count-only one: their sidecar summaries,
// dropped counts included, must be byte-identical and their kind counts
// equal, and the count-only recorder must hold no chunk. Each sequence
// overflows its limit.
func FuzzCountOnlyVsRing(f *testing.F) {
	for i, seed := range []uint64{1, 2, 3, 4, 5, 6, 7, 8, 42} {
		f.Add(seed, uint16(i))
	}
	limits := []int{0, 1, 2, 3, 5, 17, chunkLen - 1, chunkLen, chunkLen + 1}
	f.Fuzz(func(t *testing.T, seed uint64, sel uint16) {
		limit := limits[int(sel)%len(limits)]
		ring, count := newRecorder("p", limit, true), newRecorder("p", limit, false)
		rnd := rng.New(seed)
		sites := []int32{-1, ring.SiteID("a"), ring.SiteID("b")}
		count.SiteID("a")
		count.SiteID("b")
		var clock uint64
		for i, n := 0, 4*max(limit, chunkLen)+rnd.Intn(200); i < n; i++ {
			clock += 1 + uint64(rnd.Intn(50))
			tid, site := rnd.Intn(2), sites[rnd.Intn(len(sites))]
			ev := Event{
				Cycle: clock, Start: clock - uint64(rnd.Intn(int(clock))),
				Arg: uint64(rnd.Intn(1 << 12)), Site: site, Aux: int32(rnd.Intn(5) - 1),
				Kind: Kind(rnd.Intn(int(NumKinds))), Cause: Cause(rnd.Intn(int(NumCauses))),
			}
			switch ev.Kind {
			case KL1Evict, KL2Evict, KL3Evict, KInval:
				ring.MemEvent(tid, ev.Cycle, ev.Kind, ev.Arg)
				count.MemEvent(tid, ev.Cycle, ev.Kind, ev.Arg)
			default:
				if ev.Kind == KTxCommit && ev.Aux < 0 {
					ev.Aux = 0 // retries
				}
				ring.Record(tid, &ev)
				count.Record(tid, &ev)
			}
		}
		rj, err := json.Marshal(ring.Summary())
		if err != nil {
			t.Fatal(err)
		}
		cj, err := json.Marshal(count.Summary())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rj, cj) {
			t.Fatalf("limit %d: summaries differ:\nring  %s\ncount %s", limit, rj, cj)
		}
		if limit > 0 && count.Dropped() == 0 {
			t.Fatalf("limit %d: no track overflowed", limit)
		}
		for k := Kind(0); k < NumKinds; k++ {
			if ring.KindCount(k) != count.KindCount(k) {
				t.Errorf("limit %d: KindCount(%v) = %d, ring %d", limit, k, count.KindCount(k), ring.KindCount(k))
			}
		}
		for _, s := range append(count.threads, count.cores...) {
			if s.chunks != nil {
				t.Fatalf("limit %d: a count-only track holds %d chunks", limit, len(s.chunks))
			}
		}
	})
}

// TestCountOnlyPushAllocs pins that a count-only track never allocates,
// however far past its limit it is pushed.
func TestCountOnlyPushAllocs(t *testing.T) {
	for _, limit := range []int{0, 1, chunkLen + 1} {
		s := &stream{limit: limit, countOnly: true}
		push := func() {
			for i := 0; i < 3*chunkLen; i++ {
				s.push(Event{Cycle: uint64(i)})
			}
		}
		if n := testing.AllocsPerRun(5, push); n != 0 {
			t.Errorf("limit %d: count-only pushes allocate %v times", limit, n)
		}
		// AllocsPerRun calls push once more than it measures.
		total := uint64(6 * 3 * chunkLen)
		want := uint64(0)
		if limit > 0 {
			want = total - uint64(limit)
		}
		if s.total != total || s.dropped() != want {
			t.Errorf("limit %d: total %d dropped %d, want %d and %d", limit, s.total, s.dropped(), total, want)
		}
	}
}

// TestChromeTraceNeedsRings checks that a collector whose recorders kept
// no event rings refuses to write a trace rather than write an empty
// one.
func TestChromeTraceNeedsRings(t *testing.T) {
	c := NewCollector(0)
	c.BeginExperiment("test")
	fillRecorder(c.Recorder(0, "p0"))
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err == nil {
		t.Fatal("WriteChromeTrace succeeded without event rings")
	}
	if buf.Len() != 0 {
		t.Errorf("WriteChromeTrace wrote %d bytes without event rings", buf.Len())
	}
	c.Rings = true // the recorder above still has none
	if err := c.WriteChromeTrace(&buf); err == nil || buf.Len() != 0 {
		t.Errorf("WriteChromeTrace with a ringless recorder: err %v, %d bytes", err, buf.Len())
	}
}

// TestEventCompact pins the size of a recorded event: every ring slot
// holds one, so a wider Event grows every trace's memory.
func TestEventCompact(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n > 40 {
		t.Errorf("Event is %d bytes, want <= 40", n)
	}
}

func TestHistBuckets(t *testing.T) {
	var h Hist
	for _, v := range []uint64{0, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	if h.N != 6 || h.Sum != 1010 {
		t.Fatalf("N=%d Sum=%d", h.N, h.Sum)
	}
	// 0 -> bucket 0; 1 -> 1; 2,3 -> 2; 4 -> 3; 1000 -> 10.
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 1, 10: 1}
	for k, n := range h.B {
		if n != want[k] {
			t.Errorf("bucket %d = %d, want %d", k, n, want[k])
		}
	}
	if h.Mean() != 1010.0/6 {
		t.Errorf("Mean = %v", h.Mean())
	}
}

func TestRecorderSiteMatrixAndWasted(t *testing.T) {
	r := NewRecorder("t", 0)
	site := r.SiteID("reserve")
	r.TxAbort(0, 150, 100, site, CauseConflict, 0x40, 1)
	r.TxAbort(0, 260, 200, site, CauseConflict, 0x41, 2)
	r.TxAbort(0, 300, 290, site, CauseWriteCapacity, 0, -1)
	r.TxCommit(0, 500, 400, site, 3)

	sum := r.Summary()
	if len(sum.Sites) != 1 || sum.Sites[0].Site != "reserve" {
		t.Fatalf("sites = %+v", sum.Sites)
	}
	s := sum.Sites[0]
	if s.Commits != 1 || s.Aborts["conflict"] != 2 || s.Aborts["write-capacity"] != 1 {
		t.Errorf("matrix row = %+v", s)
	}
	if s.Wasted["conflict"] != 110 || s.Wasted["write-capacity"] != 10 {
		t.Errorf("site wasted = %+v", s.Wasted)
	}
	if sum.Wasted["conflict"] != 110 {
		t.Errorf("global wasted = %+v", sum.Wasted)
	}
	if r.TxCycles.N != 1 || r.TxCycles.Sum != 100 {
		t.Errorf("tx cycles hist: n=%d sum=%d", r.TxCycles.N, r.TxCycles.Sum)
	}
	if r.Retries.N != 1 || r.Retries.Sum != 3 {
		t.Errorf("retries hist: n=%d sum=%d", r.Retries.N, r.Retries.Sum)
	}
	if r.WastedCycles.N != 3 {
		t.Errorf("wasted hist n = %d", r.WastedCycles.N)
	}
}

func TestAdvanceBaseShiftsTimeline(t *testing.T) {
	r := NewRecorder("t", 0)
	r.TxCommit(0, 100, 50, -1, 0)
	r.AdvanceBase(1000)
	r.TxCommit(0, 100, 50, -1, 0)
	ev := r.ThreadEvents(0)
	if len(ev) != 2 {
		t.Fatalf("events = %d", len(ev))
	}
	if ev[0].Cycle != 100 || ev[1].Cycle != 1100 || ev[1].Start != 1050 {
		t.Errorf("cycles = %d/%d start=%d, want 100/1100 start 1050", ev[0].Cycle, ev[1].Cycle, ev[1].Start)
	}
}

// fillRecorder populates a recorder with a representative event mix.
func fillRecorder(r *Recorder) {
	site := r.SiteID("route")
	r.TxAbort(1, 90, 10, site, CauseConflict, 0x1234, 0)
	r.TxCommit(1, 200, 100, site, 1)
	r.TxInstant(0, 50, site, KTxFallback)
	r.MemEvent(0, 42, KL1Evict, 0x99)
	r.STMBackoff(1, 220, 64, CauseLocked)
	r.HTMSetsAtCommit(10, 4)
	r.HTMSetsAtAbort(30, 12)
	r.Add("sim:switches", 7)
	r.Energy(EnergySample{Label: "roi", Cycles: 200, Total: 1.5})
}

func TestChromeTraceStructure(t *testing.T) {
	c := NewCollector(0)
	c.Rings = true
	c.BeginExperiment("test")
	fillRecorder(c.Recorder(0, "p0"))

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("trace is not valid JSON:\n%s", buf.String())
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   uint64         `json:"ts"`
			Dur  uint64         `json:"dur"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	var haveProcess, haveCommit, haveAbort, haveMem bool
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "process_name":
			haveProcess = true
			if e.Args["name"] != "p0" {
				t.Errorf("process name = %v", e.Args["name"])
			}
		case e.Ph == "X" && e.Name == "route":
			haveCommit = true
			if e.Ts != 100 || e.Dur != 100 || e.Tid != 1 {
				t.Errorf("commit slice = %+v", e)
			}
		case e.Ph == "i" && e.Name == "abort: conflict":
			haveAbort = true
			if e.Args["cause"] != "conflict" || e.Args["line"] != "0x1234" || e.Args["by"] != float64(0) {
				t.Errorf("abort args = %v", e.Args)
			}
		case e.Ph == "i" && e.Name == "l1-evict":
			haveMem = true
			if e.Tid != coreTrackBase {
				t.Errorf("mem event tid = %d", e.Tid)
			}
		}
	}
	if !haveProcess || !haveCommit || !haveAbort || !haveMem {
		t.Errorf("missing events: process=%v commit=%v abort=%v mem=%v",
			haveProcess, haveCommit, haveAbort, haveMem)
	}
}

// TestCollectorMergeOrder registers recorders out of point order (as
// concurrent workers would) and asserts the exports come out keyed by
// (experiment, point, sub), not registration order.
func TestCollectorMergeOrder(t *testing.T) {
	build := func(order []int) (string, string) {
		c := NewCollector(0)
		c.Rings = true
		c.BeginExperiment("exp")
		recs := map[int]*Recorder{}
		for _, p := range order {
			recs[p] = c.Recorder(p, "point")
		}
		for p, r := range recs {
			r.TxCommit(0, uint64(100*(p+1)), 0, -1, p)
		}
		var tr bytes.Buffer
		if err := c.WriteChromeTrace(&tr); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := c.WriteMetrics(dir); err != nil {
			t.Fatal(err)
		}
		sum, err := os.ReadFile(dir + "/exp.txt")
		if err != nil {
			t.Fatal(err)
		}
		return tr.String(), string(sum)
	}
	t1, s1 := build([]int{0, 1, 2})
	t2, s2 := build([]int{2, 0, 1})
	if t1 != t2 {
		t.Errorf("chrome trace depends on registration order:\n%s\nvs\n%s", t1, t2)
	}
	if s1 != s2 {
		t.Errorf("summary depends on registration order:\n%s\nvs\n%s", s1, s2)
	}
}

func TestMetricsSidecar(t *testing.T) {
	c := NewCollector(0)
	c.BeginExperiment("claims")
	fillRecorder(c.Recorder(0, "p0"))
	dir := t.TempDir()
	if err := c.WriteMetrics(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/claims.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc MetricsJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("sidecar unmarshal: %v", err)
	}
	if doc.Experiment != "claims" || len(doc.Recorders) != 1 {
		t.Fatalf("doc = %+v", doc)
	}
	r := doc.Recorders[0]
	if r.Counters["sim:switches"] != 7 || r.Counters["stm:backoff.cycles"] != 64 {
		t.Errorf("counters = %v", r.Counters)
	}
	if r.Hists["read_at_commit"].Count != 1 || r.Hists["tx_cycles"].Count != 1 {
		t.Errorf("hists = %v", r.Hists)
	}
	if len(r.Energy) != 1 || r.Energy[0].Total != 1.5 {
		t.Errorf("energy = %v", r.Energy)
	}
	txt, err := os.ReadFile(dir + "/claims.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(txt), "route") || !strings.Contains(string(txt), "wasted cycles") {
		t.Errorf("text summary missing sections:\n%s", txt)
	}
}

func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	c.BeginExperiment("x")
	if r := c.Recorder(0, "x"); r != nil {
		t.Fatal("nil collector handed out a recorder")
	}
	if err := c.WriteChromeTrace(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := c.WriteMetrics(dir); err != nil {
		t.Fatal(err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("nil collector wrote %d files (err %v)", len(ents), err)
	}
}
