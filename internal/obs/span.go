package obs

import (
	"math/bits"
	"sort"
)

// Causal span/blame layer. The flight recorder's event streams say what
// each thread did; this file adds the *why* on top of them, assembled
// online as events are recorded (span state is per-thread and
// fixed-size, so the analyses survive ring-buffer drops and cost no
// steady-state allocation):
//
//   - spans: one per atomic block, begin -> attempts -> aborts ->
//     optional fallback -> commit, all on the simulated-cycle timeline;
//   - per-site and per-thread latency quantile histograms (p50/p99/p999
//     from sub-bucketed log2 histograms);
//   - the abort blame graph: aggressor thread -> victim thread edges
//     (and aggressor site -> victim site, via the aggressor's current
//     span) weighted by kills and wasted cycles;
//   - killer-chain (convoy) detection: a victim that goes on to kill
//     someone else within ConvoyWindow cycles extends a kill chain;
//   - Amdahl-style attribution: per-thread busy cycles, critical-path
//     cycles (each region's longest thread claims the region length) and
//     the sharded engine's per-thread boundary-parked vs local op split.

// qMinorBits sub-buckets each power-of-two octave of a QHist into
// 1<<qMinorBits linear slices, bounding the relative quantile error by
// 2^-qMinorBits (12.5%).
const qMinorBits = 3

const (
	qMinors  = 1 << qMinorBits
	qBuckets = (64-qMinorBits)*qMinors + qMinors // index range of qIndex
)

// ConvoyWindow is the horizon, in simulated cycles, within which a
// freshly-killed thread that kills someone else extends a kill chain
// (convoy) instead of starting a new one.
const ConvoyWindow = 1 << 16

// QHist is a quantile histogram: log2 major buckets split into 8 linear
// minor buckets each, giving percentile estimates within 12.5% of the
// true value. Values 0..7 are exact. The zero value is ready to use.
type QHist struct {
	N   uint64
	Sum uint64
	Max uint64
	B   [qBuckets]uint64
}

// qIndex maps a value to its bucket.
//
//rtm:hot
func qIndex(v uint64) int {
	if v < qMinors {
		return int(v)
	}
	m := bits.Len64(v) // >= qMinorBits+1
	shift := uint(m - 1 - qMinorBits)
	minor := int((v >> shift) & (qMinors - 1))
	return (m-qMinorBits)*qMinors + minor
}

// qBounds returns bucket i's value range [lo, hi).
func qBounds(i int) (lo, hi uint64) {
	if i < qMinors {
		return uint64(i), uint64(i) + 1
	}
	m := i/qMinors + qMinorBits
	minor := uint64(i % qMinors)
	width := uint64(1) << uint(m-1-qMinorBits)
	lo = 1<<uint(m-1) + minor*width
	return lo, lo + width
}

// Observe records one value.
//
//rtm:hot
func (h *QHist) Observe(v uint64) {
	h.N++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	h.B[qIndex(v)]++
}

// Mean returns the average observation (0 when empty).
func (h *QHist) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}

// Quantile returns an estimate of the q-quantile (q in [0, 1]) by
// locating the bucket holding the rank and interpolating linearly inside
// it. Deterministic: pure float64 arithmetic over the bucket counts.
func (h *QHist) Quantile(q float64) float64 {
	if h.N == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.N-1) // 0-based fractional rank
	var cum uint64
	for i := range h.B {
		n := h.B[i]
		if n == 0 {
			continue
		}
		// Ranks cum .. cum+n-1 live in this bucket.
		if rank < float64(cum+n) {
			lo, hi := qBounds(i)
			if n == 1 || hi-lo <= 1 {
				return float64(lo)
			}
			frac := (rank - float64(cum)) / float64(n-1)
			v := float64(lo) + frac*float64(hi-1-lo)
			return v
		}
		cum += n
	}
	return float64(h.Max)
}

// Merge folds o into h. Commutative and associative, so merging
// recorders is order-independent.
func (h *QHist) Merge(o *QHist) {
	h.N += o.N
	h.Sum += o.Sum
	if o.Max > h.Max {
		h.Max = o.Max
	}
	for i := range h.B {
		h.B[i] += o.B[i]
	}
}

// Merge folds o into h (bucket-wise sum; commutative).
func (h *Hist) Merge(o *Hist) {
	h.N += o.N
	h.Sum += o.Sum
	for i := range h.B {
		h.B[i] += o.B[i]
	}
}

// spanThread is the per-thread causal state: the currently open span,
// killer-chain bookkeeping, and the thread's accumulated totals.
type spanThread struct {
	// Open-span state.
	open     bool
	fallback bool // span fell back to the serial/STM path
	site     int32
	begin    uint64 // run-global cycle of the span's first attempt
	lastSite int32  // site of the most recent event (aggressor attribution)

	// Killer-chain state: when this thread was last killed, by whom, and
	// the depth of the kill chain ending at it.
	killedBy   int32
	killedAt   uint64
	killedEver bool
	chainDepth uint32

	// Totals.
	spans     uint64 // committed atomic blocks
	fallbacks uint64 // spans that completed through a fallback path
	aborts    uint64 // aborted attempts
	wasted    uint64 // cycles in aborted attempts
	lat       QHist  // committed span duration (retries included)

	// Attribution (fed by the engine at region end).
	busy     uint64 // thread cycles across regions
	critical uint64 // cycles of regions this thread was the longest of
	opParks  uint64 // sharded engine: ops parked to an epoch boundary
	localOps uint64 // sharded engine: ops served inside the epoch
}

// blameCell is one edge of a blame graph.
type blameCell struct {
	kills  uint64
	wasted uint64
}

// blameKey packs an (aggressor, victim) pair; the int32 halves keep the
// pack/unpack lossless for site ids (-1 = unknown) and tids alike.
func blameKey(aggressor, victim int32) uint64 {
	return uint64(uint32(aggressor))<<32 | uint64(uint32(victim))
}

func blameUnkey(k uint64) (aggressor, victim int32) {
	return int32(uint32(k >> 32)), int32(uint32(k))
}

// spanState is the Recorder's causal-profiler state.
type spanState struct {
	threads []spanThread

	attempts      uint64 // begin events (hardware, STM and fallback attempts)
	fallbackSpans uint64
	chainLinks    uint64 // kills that extended a chain (depth >= 2)
	chainMax      uint32 // deepest chain observed
	lat           QHist  // all committed span durations

	// Blame graphs: thread -> thread and site -> site (aggressor site
	// resolved through the aggressor's open or last-known span; -1 when
	// the aggressor is unknown or ran no tagged site).
	threadBlame map[uint64]blameCell
	siteBlame   map[uint64]blameCell

	siteLat []*QHist // per-site latency, parallel to Recorder.sites
}

// thread returns the per-thread span state, growing the table.
func (s *spanState) thread(tid int) *spanThread {
	for len(s.threads) <= tid {
		s.threads = append(s.threads, spanThread{site: -1, lastSite: -1, killedBy: -1})
	}
	return &s.threads[tid]
}

// ensureSiteLat grows the per-site latency table to cover site id.
func (s *spanState) ensureSiteLat(site int32) *QHist {
	for len(s.siteLat) <= int(site) {
		s.siteLat = append(s.siteLat, &QHist{})
	}
	return s.siteLat[site]
}

// spanBegin opens (or extends) the thread's span at one attempt start.
func (r *Recorder) spanBegin(tid int, cycle uint64, site int32) {
	st := r.spans.thread(tid)
	if !st.open {
		st.open = true
		st.fallback = false
		st.begin = cycle
		st.site = site
	}
	st.lastSite = site
	r.spans.attempts++
}

// spanCommit closes the thread's span at a commit event.
func (r *Recorder) spanCommit(tid int, cycle, start uint64, site int32) {
	st := r.spans.thread(tid)
	begin := start
	if st.open {
		begin = st.begin
	}
	dur := cycle - begin
	st.spans++
	if st.open && st.fallback {
		st.fallbacks++
		r.spans.fallbackSpans++
	}
	st.lat.Observe(dur)
	r.spans.lat.Observe(dur)
	if site >= 0 {
		r.spans.ensureSiteLat(site).Observe(dur)
	}
	st.open = false
	st.lastSite = site
}

// spanAbort accounts one aborted attempt: wasted work on the victim and
// a blame edge to the aggressor (when known), extending kill chains.
func (r *Recorder) spanAbort(tid int, cycle, wasted uint64, site int32, by int) {
	s := &r.spans
	st := s.thread(tid)
	st.aborts++
	st.wasted += wasted
	st.lastSite = site
	if by < 0 || by == tid {
		return
	}
	if s.threadBlame == nil {
		s.threadBlame = make(map[uint64]blameCell)
		s.siteBlame = make(map[uint64]blameCell)
	}
	tk := blameKey(int32(by), int32(tid))
	tc := s.threadBlame[tk]
	tc.kills++
	tc.wasted += wasted
	s.threadBlame[tk] = tc

	// Grow the table to cover both tids before taking pointers: a grow
	// after the first fetch would leave it dangling into the old array.
	s.thread(by)
	st = s.thread(tid)
	ag := s.thread(by)
	aggSite := ag.lastSite
	if ag.open {
		aggSite = ag.site
	}
	sk := blameKey(aggSite, site)
	sc := s.siteBlame[sk]
	sc.kills++
	sc.wasted += wasted
	s.siteBlame[sk] = sc

	// Kill-chain propagation: if the aggressor was itself killed
	// recently, this kill extends the chain that ended at it.
	depth := uint32(1)
	if ag.killedEver && cycle-ag.killedAt <= ConvoyWindow {
		depth = ag.chainDepth + 1
		s.chainLinks++
		if depth > s.chainMax {
			s.chainMax = depth
		}
	}
	st.killedBy = int32(by)
	st.killedAt = cycle
	st.killedEver = true
	st.chainDepth = depth
}

// spanFallback marks the open span as completing through a fallback.
func (r *Recorder) spanFallback(tid int) {
	st := r.spans.thread(tid)
	if st.open {
		st.fallback = true
	}
}

// TxBegin records the start of one attempt of an atomic block on the
// thread's track and opens/extends the thread's span. cycle is the
// region-local thread cycle (like TxCommit/TxAbort).
func (r *Recorder) TxBegin(tid int, cycle uint64, site int32) {
	r.pushThread(tid, Event{Cycle: r.base + cycle, Site: site, Aux: -1, Kind: KTxBegin})
	r.spanBegin(tid, r.base+cycle, site)
}

// RegionThreads attributes one finished region to the causal profile:
// every thread's cycles count as busy time, and the region's longest
// thread (lowest tid on ties — deterministic) claims the whole region
// length as critical-path time. Call before AdvanceBase, with the
// region-local thread clocks.
func (r *Recorder) RegionThreads(threadCycles []uint64) {
	if len(threadCycles) == 0 {
		return
	}
	var max uint64
	argmax := 0
	for tid, c := range threadCycles {
		r.spans.thread(tid).busy += c
		if c > max {
			max, argmax = c, tid
		}
	}
	r.spans.thread(argmax).critical += max
}

// ShardThreadOps attributes the sharded engine's serial fraction to one
// thread: ops parked to an epoch boundary vs ops served inside the
// epoch. Call at region end (cumulative per region).
func (r *Recorder) ShardThreadOps(tid int, opParks, localOps uint64) {
	st := r.spans.thread(tid)
	st.opParks += opParks
	st.localOps += localOps
}

// MergeFrom folds o's aggregable state into r: histograms, counters,
// kind counts, wasted-cycle accounting, the site matrix and latency,
// the blame graphs, per-thread causal totals and span totals. Event
// streams and energy samples are per-point by nature and are not
// merged. Site ids are remapped through names, so merging is
// order-independent: merging recorders A, B, C in any order yields an
// identical Summary().
func (r *Recorder) MergeFrom(o *Recorder) {
	for k := range o.kindCount {
		r.kindCount[k] += o.kindCount[k]
	}
	for _, k := range sortedKeys(o.counters) {
		r.counters[k] += o.counters[k]
	}
	for c := range o.wasted {
		r.wasted[c] += o.wasted[c]
	}
	r.TxCycles.Merge(&o.TxCycles)
	r.WastedCycles.Merge(&o.WastedCycles)
	r.Retries.Merge(&o.Retries)
	r.ReadAtCommit.Merge(&o.ReadAtCommit)
	r.WriteAtCommit.Merge(&o.WriteAtCommit)
	r.ReadAtAbort.Merge(&o.ReadAtAbort)
	r.WriteAtAbort.Merge(&o.WriteAtAbort)

	// Sites: remap through names.
	idMap := make([]int32, len(o.siteNames))
	for oid, name := range o.siteNames {
		id := r.SiteID(name)
		idMap[oid] = id
		src := o.sites[oid]
		dst := r.sites[id]
		dst.commits += src.commits
		for c := range src.aborts {
			dst.aborts[c] += src.aborts[c]
			dst.wasted[c] += src.wasted[c]
		}
		if int(oid) < len(o.spans.siteLat) {
			r.spans.ensureSiteLat(id).Merge(o.spans.siteLat[oid])
		}
	}
	mapSite := func(id int32) int32 {
		if id < 0 || int(id) >= len(idMap) {
			return -1
		}
		return idMap[id]
	}

	// Per-thread totals (open-span and chain state is per-point
	// transient and is not carried over).
	for tid := range o.spans.threads {
		src := &o.spans.threads[tid]
		dst := r.spans.thread(tid)
		dst.spans += src.spans
		dst.fallbacks += src.fallbacks
		dst.aborts += src.aborts
		dst.wasted += src.wasted
		dst.lat.Merge(&src.lat)
		dst.busy += src.busy
		dst.critical += src.critical
		dst.opParks += src.opParks
		dst.localOps += src.localOps
	}
	r.spans.attempts += o.spans.attempts
	r.spans.fallbackSpans += o.spans.fallbackSpans
	r.spans.chainLinks += o.spans.chainLinks
	if o.spans.chainMax > r.spans.chainMax {
		r.spans.chainMax = o.spans.chainMax
	}
	r.spans.lat.Merge(&o.spans.lat)

	if len(o.spans.threadBlame) > 0 && r.spans.threadBlame == nil {
		r.spans.threadBlame = make(map[uint64]blameCell)
		r.spans.siteBlame = make(map[uint64]blameCell)
	}
	for _, k := range sortedKeys64(o.spans.threadBlame) {
		c := r.spans.threadBlame[k]
		c.kills += o.spans.threadBlame[k].kills
		c.wasted += o.spans.threadBlame[k].wasted
		r.spans.threadBlame[k] = c
	}
	for _, k := range sortedKeys64(o.spans.siteBlame) {
		agg, vic := blameUnkey(k)
		rk := blameKey(mapSite(agg), mapSite(vic))
		c := r.spans.siteBlame[rk]
		c.kills += o.spans.siteBlame[k].kills
		c.wasted += o.spans.siteBlame[k].wasted
		r.spans.siteBlame[rk] = c
	}
}

func sortedKeys64[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
