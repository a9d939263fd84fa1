// Package obs is the flight-recorder observability layer: one Recorder
// per experiment point unifies the event plumbing that used to be
// scattered across trace.Buffer text dumps and perf.Set counters.
//
// A Recorder owns:
//
//   - per-track ring-buffered event streams with cycle timestamps (one
//     track per simulated hardware thread, plus one per core for memory
//     events) — flight-recorder semantics: bounded memory, the most
//     recent events win. A Collector's recorders store events only when
//     its Rings is set; otherwise their tracks only count them;
//   - log-bucketed histograms: transaction duration in cycles, wasted
//     (aborted-attempt) cycles, read-/write-set lines at commit and at
//     abort, retries-to-commit;
//   - a per-atomic-site x abort-cause matrix with wasted-cycles
//     accounting split by cause — the inputs for the paper's
//     per-transaction abort tables;
//   - named counters (per-level cache misses/evictions/invalidations,
//     scheduler switches, STM backoff cycles, ...);
//   - per-region energy component samples.
//
// The disabled path is a nil pointer: every instrumented layer holds a
// *Recorder that is nil unless recording was requested and guards each
// record call with a single nil check. Recorders are single-threaded by
// construction (the simulation engine serialises all simulated threads of
// one machine, and every experiment point owns its machine); merging
// across concurrently-executed points is the Collector's job and is
// keyed, not ordered by completion.
package obs

import (
	"math/bits"
	"sync"
)

// Cause is the unified abort-cause taxonomy across the HTM and STM
// layers. The string forms match the per-backend counter spellings
// ("htm:abort.conflict", "stm:abort.locked", ...) so the matrix lines up
// with the existing perf counters.
type Cause uint8

const (
	CauseNone Cause = iota // voluntary restart
	CauseConflict
	CauseReadCapacity
	CauseWriteCapacity
	CauseExplicit
	CauseInterrupt
	CausePageFault
	CauseNestDepth
	// CauseLocked is an STM lock conflict: encounter-time under tinystm
	// (first write to a contended word), commit-time under tl2 (lock
	// acquisition inside the commit window). NOrec has no locks and
	// never reports it — its conflicts all surface as CauseValidation.
	CauseLocked
	// CauseValidation is a failed STM snapshot check: version-based
	// under tinystm (extension failure) and tl2 (read-time version or
	// commit-time read-set check), value-based under norec (a re-read
	// returned a different value).
	CauseValidation
	NumCauses
)

var causeNames = [NumCauses]string{
	CauseNone:          "none",
	CauseConflict:      "conflict",
	CauseReadCapacity:  "read-capacity",
	CauseWriteCapacity: "write-capacity",
	CauseExplicit:      "explicit",
	CauseInterrupt:     "interrupt",
	CausePageFault:     "page-fault",
	CauseNestDepth:     "nest-depth",
	CauseLocked:        "locked",
	CauseValidation:    "validation",
}

func (c Cause) String() string {
	if c < NumCauses {
		return causeNames[c]
	}
	return "cause?"
}

// Kind classifies a recorded event.
type Kind uint8

const (
	KTxCommit Kind = iota
	KTxAbort
	KTxFallback
	KL1Evict
	KL2Evict
	KL3Evict
	KInval
	KBackoff
	KTxBegin
	NumKinds
)

var kindNames = [NumKinds]string{
	KTxCommit:   "commit",
	KTxAbort:    "abort",
	KTxFallback: "fallback",
	KL1Evict:    "l1-evict",
	KL2Evict:    "l2-evict",
	KL3Evict:    "l3-evict",
	KInval:      "invalidate",
	KBackoff:    "backoff",
	KTxBegin:    "begin",
}

func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return "kind?"
}

// Event is one flight-recorder entry. Cycles are run-global: the
// recorder re-bases every region's thread-local clocks onto one
// monotonic timeline (see AdvanceBase).
type Event struct {
	Cycle uint64 // when the event completed
	Start uint64 // attempt start (commit/abort slices); 0 otherwise
	Arg   uint64 // conflicting/evicted line address, or backoff cycles
	Site  int32  // interned atomic-site id, -1 for none
	Aux   int32  // aggressor thread (abort), retries (commit), -1/0 otherwise
	Kind  Kind
	Cause Cause
}

// chunkLen is the number of events in one ring chunk (40 KiB), a power
// of two so indexing is a shift and a mask.
const chunkLen = 1024

// stream is one track's ring of events, stored in fixed-size chunks that
// are allocated on first use and never moved: growing the ring adds a
// chunk and never re-copies the events already kept. With a limit, the
// most recent limit events are kept (flight-recorder semantics): once
// limit events are held, each push overwrites the oldest in place, and
// the last chunk is only as long as the limit needs. total counts what
// was ever emitted, so exporters can report drops.
//
// A count-only stream stores nothing: it keeps total and the kept count
// a ring would hold (min(total, limit)), so dropped() reads the same as
// a ring's, and it never allocates a chunk.
type stream struct {
	chunks    [][]Event
	kept      int // events held: at most limit when limit > 0
	next      int // slot of the next push
	total     uint64
	limit     int
	countOnly bool
}

func (s *stream) push(e Event) {
	if s.countOnly {
		if s.kept != s.limit || s.limit == 0 {
			s.kept++
		}
		s.total++
		return
	}
	if s.next == s.limit && s.limit > 0 {
		s.next = 0 // full: overwrite from the oldest slot
	}
	if s.next == s.kept {
		if s.kept%chunkLen == 0 {
			n := chunkLen
			if s.limit > 0 {
				if s.chunks == nil { // size the chunk index once
					s.chunks = make([][]Event, 0, (s.limit+chunkLen-1)/chunkLen)
				}
				n = min(n, s.limit-s.kept)
			}
			s.chunks = append(s.chunks, make([]Event, n))
		}
		s.kept++
	}
	s.chunks[s.next/chunkLen][s.next%chunkLen] = e
	s.next++
	s.total++
}

// each calls f on the kept events in emission order (oldest first).
func (s *stream) each(f func(*Event)) {
	first := 0
	if s.total > uint64(s.kept) { // wrapped: the oldest is at next
		first = s.next
	}
	for k := 0; k < s.kept; k++ {
		i := first + k
		if i >= s.kept {
			i -= s.kept
		}
		f(&s.chunks[i/chunkLen][i%chunkLen])
	}
}

// events returns a copy of the kept events in emission order.
func (s *stream) events() []Event {
	out := make([]Event, 0, s.kept)
	s.each(func(e *Event) { out = append(out, *e) })
	return out
}

func (s *stream) dropped() uint64 { return s.total - uint64(s.kept) }

// Hist is a log2-bucketed histogram: bucket k counts observations v with
// bits.Len64(v) == k, i.e. 2^(k-1) <= v < 2^k (bucket 0 is v == 0).
type Hist struct {
	N   uint64
	Sum uint64
	B   [65]uint64
}

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	h.N++
	h.Sum += v
	h.B[bits.Len64(v)]++
}

// Mean returns the average observation (0 when empty).
func (h *Hist) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}

// siteStats is one row of the per-site x abort-cause matrix.
type siteStats struct {
	commits uint64
	aborts  [NumCauses]uint64
	wasted  [NumCauses]uint64
}

// EnergySample is one region's energy breakdown in joules (mirrors
// energy.Report, kept dependency-free here).
type EnergySample struct {
	Label    string  `json:"label"`
	Cycles   uint64  `json:"cycles"`
	Static   float64 `json:"static_j"`
	CoreBusy float64 `json:"core_busy_j"`
	CoreIdle float64 `json:"core_idle_j"`
	Instr    float64 `json:"instr_j"`
	L1       float64 `json:"l1_j"`
	L2       float64 `json:"l2_j"`
	L3       float64 `json:"l3_j"`
	DRAM     float64 `json:"dram_j"`
	Coh      float64 `json:"coh_j"`
	Abort    float64 `json:"abort_j"`
	Total    float64 `json:"total_j"`
}

// Recorder is the per-experiment-point flight recorder. The zero value
// is not usable; use NewRecorder (or Collector.Recorder). A nil
// *Recorder is the disabled state: instrumented layers guard every
// record call with a nil check, so the off path costs one compare.
type Recorder struct {
	label string
	// sort key assigned by the Collector: experiment sequence, point
	// index within the experiment, sub index within the point.
	exp, point, sub int

	limit int
	rings bool   // tracks store their events (see NewRecorder, Collector.Rings)
	base  uint64 // cycle offset of the current region (see AdvanceBase)

	threads []*stream
	cores   []*stream

	siteMu    sync.Mutex // guards interning only; see SiteID
	siteNames []string
	siteIdx   map[string]int32
	sites     []*siteStats

	kindCount [NumKinds]uint64

	// Histograms.
	TxCycles      Hist // committed atomic block duration (incl. retries)
	WastedCycles  Hist // duration of each aborted attempt
	Retries       Hist // failed attempts before each commit
	ReadAtCommit  Hist // read-set lines at HTM commit
	WriteAtCommit Hist // write-set lines at HTM commit
	ReadAtAbort   Hist // read-set lines at HTM abort
	WriteAtAbort  Hist // write-set lines at HTM abort

	wasted   [NumCauses]uint64 // aborted-attempt cycles by cause
	counters map[string]uint64
	energy   []EnergySample

	// spans is the causal-profiler state (see span.go): per-thread open
	// spans, latency quantile histograms, the abort blame graphs, kill
	// chains and critical-path attribution.
	spans spanState

	// wallNS is host wall-clock time spent simulating the recorded
	// regions. Unlike every other field it measures the host, not the
	// simulated machine, so it is NOT deterministic; it is exported in a
	// separate timing sidecar and excluded from the byte-identity
	// guarantee on traces and metrics.
	wallNS int64
}

// NewRecorder returns an enabled recorder whose tracks keep at most
// limit events each (0 = unbounded).
func NewRecorder(label string, limit int) *Recorder {
	return newRecorder(label, limit, true)
}

// newRecorder returns an enabled recorder; without rings its tracks only
// count events (see stream).
func newRecorder(label string, limit int, rings bool) *Recorder {
	return &Recorder{
		label:    label,
		limit:    limit,
		rings:    rings,
		siteIdx:  make(map[string]int32),
		counters: make(map[string]uint64),
	}
}

// Label returns the recorder's display label.
func (r *Recorder) Label() string { return r.label }

// AdvanceBase shifts the recorder's timeline by one region's duration.
// Thread clocks restart at zero in every parallel region; the engine
// calls this at region end so that events from successive regions land
// on one monotonic run-global timeline.
func (r *Recorder) AdvanceBase(regionCycles uint64) { r.base += regionCycles }

// AddWall accumulates host wall-clock nanoseconds spent simulating the
// recorded regions (see the wallNS field note on determinism).
func (r *Recorder) AddWall(ns int64) { r.wallNS += ns }

func (r *Recorder) grow(tracks *[]*stream, i int) *stream {
	for len(*tracks) <= i {
		*tracks = append(*tracks, &stream{limit: r.limit, countOnly: !r.rings})
	}
	return (*tracks)[i]
}

func (r *Recorder) thread(tid int) *stream { return r.grow(&r.threads, tid) }
func (r *Recorder) core(cid int) *stream   { return r.grow(&r.cores, cid) }

func (r *Recorder) pushThread(tid int, e Event) {
	r.kindCount[e.Kind]++
	r.thread(tid).push(e)
}

// SiteID interns an atomic-site name, returning its id (-1 for the empty
// name). Safe for concurrent use: shard workers intern during the
// parallel phase, where taking a simulated-time path (an exclusive
// boundary op) would make the simulation depend on whether a recorder is
// attached. Interning order — and therefore id assignment — may vary
// with host scheduling, but ids are internal handles: every export
// resolves them through SiteName or the name-sorted site table, so
// recorded output remains byte-identical.
func (r *Recorder) SiteID(name string) int32 {
	if name == "" {
		return -1
	}
	r.siteMu.Lock()
	defer r.siteMu.Unlock()
	if id, ok := r.siteIdx[name]; ok {
		return id
	}
	id := int32(len(r.siteNames))
	r.siteIdx[name] = id
	r.siteNames = append(r.siteNames, name)
	r.sites = append(r.sites, &siteStats{})
	return id
}

// SiteName returns the name for an interned site id ("" for -1).
func (r *Recorder) SiteName(id int32) string {
	if id < 0 || int(id) >= len(r.siteNames) {
		return ""
	}
	return r.siteNames[id]
}

// TxCommit records a committed atomic block: a duration slice on the
// thread's track plus the duration and retries histograms and the site
// commit count. start and cycle are region-local thread cycles.
func (r *Recorder) TxCommit(tid int, cycle, start uint64, site int32, retries int) {
	r.pushThread(tid, Event{
		Cycle: r.base + cycle, Start: r.base + start,
		Site: site, Aux: int32(retries), Kind: KTxCommit,
	})
	r.TxCycles.Observe(cycle - start)
	r.Retries.Observe(uint64(retries))
	if site >= 0 {
		r.sites[site].commits++
	}
	r.spanCommit(tid, r.base+cycle, r.base+start, site)
}

// TxAbort records one aborted attempt: an event carrying the cause, the
// conflicting line (0 if none) and the aggressor thread (-1 if none),
// plus the site x cause matrix cell and wasted-cycle accounting.
func (r *Recorder) TxAbort(tid int, cycle, start uint64, site int32, cause Cause, line uint64, by int) {
	r.pushThread(tid, Event{
		Cycle: r.base + cycle, Start: r.base + start,
		Arg: line, Site: site, Aux: int32(by), Kind: KTxAbort, Cause: cause,
	})
	w := cycle - start
	r.WastedCycles.Observe(w)
	r.wasted[cause] += w
	if site >= 0 {
		s := r.sites[site]
		s.aborts[cause]++
		s.wasted[cause] += w
	}
	r.spanAbort(tid, r.base+cycle, w, site, by)
}

// TxInstant records a point event (fallback serialisation) on the
// thread's track. A fallback instant marks the thread's open span as
// completing through a fallback path.
func (r *Recorder) TxInstant(tid int, cycle uint64, site int32, kind Kind) {
	r.pushThread(tid, Event{Cycle: r.base + cycle, Site: site, Aux: -1, Kind: kind})
	if kind == KTxFallback {
		r.spanFallback(tid)
	}
}

// Record applies one thread-track event, dispatching on ev.Kind to the
// method that records it; ev's cycles are region-local. It is how the
// simulation engine delivers every transaction event, whether at once
// or replayed at an epoch boundary.
func (r *Recorder) Record(tid int, ev *Event) {
	switch ev.Kind {
	case KTxCommit:
		r.TxCommit(tid, ev.Cycle, ev.Start, ev.Site, int(ev.Aux))
	case KTxAbort:
		r.TxAbort(tid, ev.Cycle, ev.Start, ev.Site, ev.Cause, ev.Arg, int(ev.Aux))
	case KTxBegin:
		r.TxBegin(tid, ev.Cycle, ev.Site)
	case KBackoff:
		r.STMBackoff(tid, ev.Cycle, ev.Arg, ev.Cause)
	default:
		r.TxInstant(tid, ev.Cycle, ev.Site, ev.Kind)
	}
}

// HTMSetsAtCommit records the transactional footprint of a committing
// hardware transaction.
func (r *Recorder) HTMSetsAtCommit(readLines, writeLines int) {
	r.ReadAtCommit.Observe(uint64(readLines))
	r.WriteAtCommit.Observe(uint64(writeLines))
}

// HTMSetsAtAbort records the footprint a hardware transaction had built
// when it died.
func (r *Recorder) HTMSetsAtAbort(readLines, writeLines int) {
	r.ReadAtAbort.Observe(uint64(readLines))
	r.WriteAtAbort.Observe(uint64(writeLines))
}

// MemEvent records a cache event (eviction, invalidation) on the
// owning core's track. cycle is the accessing thread's region-local
// clock (mem.Hierarchy.Now).
func (r *Recorder) MemEvent(core int, cycle uint64, kind Kind, line uint64) {
	r.kindCount[kind]++
	r.core(core).push(Event{Cycle: r.base + cycle, Arg: line, Site: -1, Aux: -1, Kind: kind})
}

// STMBackoff records one STM post-abort backoff window on the thread's
// track.
func (r *Recorder) STMBackoff(tid int, cycle, backoffCycles uint64, cause Cause) {
	r.pushThread(tid, Event{
		Cycle: r.base + cycle, Arg: backoffCycles, Site: -1, Aux: -1,
		Kind: KBackoff, Cause: cause,
	})
	r.Add("stm:backoff.cycles", backoffCycles)
}

// Add increments a named counter by n.
func (r *Recorder) Add(name string, n uint64) { r.counters[name] += n }

// Counter returns a named counter's value.
func (r *Recorder) Counter(name string) uint64 { return r.counters[name] }

// Energy appends one region energy sample.
func (r *Recorder) Energy(s EnergySample) { r.energy = append(r.energy, s) }

// Dropped returns the number of events overwritten across all tracks.
func (r *Recorder) Dropped() uint64 {
	var n uint64
	for _, s := range r.threads {
		n += s.dropped()
	}
	for _, s := range r.cores {
		n += s.dropped()
	}
	return n
}

// ThreadEvents returns the kept events of one thread track in emission
// order (nil for an untouched track). For exporters and tests, on
// recorders that keep event rings.
func (r *Recorder) ThreadEvents(tid int) []Event {
	if tid < 0 || tid >= len(r.threads) {
		return nil
	}
	return r.threads[tid].events()
}

// Threads returns the number of thread tracks touched.
func (r *Recorder) Threads() int { return len(r.threads) }
