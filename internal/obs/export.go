package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Metrics sidecar: one JSON document per experiment, with every
// recorder's counters, histograms, site x cause matrix, wasted-cycles
// split and energy samples. encoding/json sorts map keys, and recorders
// are walked in merge order, so the bytes are deterministic.

// HistJSON is the sidecar form of a histogram: buckets[k] counts
// observations v with bits.Len64(v) == k (trailing zero buckets are
// trimmed).
type HistJSON struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Mean    float64  `json:"mean"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

func histJSON(h *Hist) HistJSON {
	out := HistJSON{Count: h.N, Sum: h.Sum, Mean: h.Mean()}
	top := -1
	for k := range h.B {
		if h.B[k] != 0 {
			top = k
		}
	}
	if top >= 0 {
		out.Buckets = append(out.Buckets, h.B[:top+1]...)
	}
	return out
}

// QHistJSON is the sidecar form of a quantile histogram: summary
// statistics only (p50/p99/p999 within 12.5% of exact), no buckets.
type QHistJSON struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Max   uint64  `json:"max"`
}

func qhistJSON(h *QHist) QHistJSON {
	return QHistJSON{
		Count: h.N, Sum: h.Sum, Mean: h.Mean(),
		P50: h.Quantile(0.50), P99: h.Quantile(0.99), P999: h.Quantile(0.999),
		Max: h.Max,
	}
}

// SiteJSON is one row of the per-site abort matrix. Latency is the
// committed-span duration distribution of atomic blocks at this site.
type SiteJSON struct {
	Site    string            `json:"site"`
	Commits uint64            `json:"commits"`
	Aborts  map[string]uint64 `json:"aborts,omitempty"`
	Wasted  map[string]uint64 `json:"wasted_cycles,omitempty"`
	Latency *QHistJSON        `json:"latency,omitempty"`
}

// BlameEdgeJSON is one edge of a blame graph: the aggressor killed the
// victim Kills times, wasting WastedCycles of the victim's work.
// Aggressor/Victim are thread names ("t3") in the thread graph and
// interned site names ("?" when unknown) in the site graph.
type BlameEdgeJSON struct {
	Aggressor    string `json:"aggressor"`
	Victim       string `json:"victim"`
	Kills        uint64 `json:"kills"`
	WastedCycles uint64 `json:"wasted_cycles"`
}

// ThreadJSON is one thread's causal profile.
type ThreadJSON struct {
	Tid            int        `json:"tid"`
	Spans          uint64     `json:"spans"`
	Fallbacks      uint64     `json:"fallbacks,omitempty"`
	Aborts         uint64     `json:"aborts,omitempty"`
	WastedCycles   uint64     `json:"wasted_cycles,omitempty"`
	Latency        *QHistJSON `json:"latency,omitempty"`
	BusyCycles     uint64     `json:"busy_cycles,omitempty"`
	CriticalCycles uint64     `json:"critical_cycles,omitempty"`
	BoundaryParks  uint64     `json:"boundary_parks,omitempty"`
	LocalOps       uint64     `json:"local_ops,omitempty"`
}

// SpansJSON is the causal-profiler block of one recorder: span totals,
// the commit-latency quantile distribution, kill-chain (convoy)
// statistics, Amdahl attribution (busy vs critical-path cycles), and the
// two blame graphs.
type SpansJSON struct {
	Committed          uint64          `json:"committed"`
	Attempts           uint64          `json:"attempts"`
	Fallbacks          uint64          `json:"fallbacks,omitempty"`
	Latency            QHistJSON       `json:"latency"`
	ConvoyWindow       uint64          `json:"convoy_window_cycles"`
	ChainLinks         uint64          `json:"chain_links,omitempty"`
	ChainMaxDepth      uint64          `json:"chain_max_depth,omitempty"`
	BusyCycles         uint64          `json:"busy_cycles,omitempty"`
	CriticalPathCycles uint64          `json:"critical_path_cycles,omitempty"`
	ThreadBlame        []BlameEdgeJSON `json:"thread_blame,omitempty"`
	SiteBlame          []BlameEdgeJSON `json:"site_blame,omitempty"`
	Threads            []ThreadJSON    `json:"threads,omitempty"`
}

// ShardingJSON is the derived sharded-engine block of one recorder:
// ratios computed from the sim:* counters that tell how much of the
// point's work left the epoch-parallel phase. SerialFraction is the
// share of memory operations resolved at epoch boundaries —
// boundary_ops / (boundary_ops + local_ops) — the serial fraction the
// ownership classifier exists to shrink.
type ShardingJSON struct {
	Epochs              uint64  `json:"epochs"`
	ParksPerEpoch       float64 `json:"parks_per_epoch"`
	BoundaryOpsPerEpoch float64 `json:"boundary_ops_per_epoch"`
	SerialFraction      float64 `json:"serial_fraction"`
}

// RecorderJSON is the sidecar form of one recorder.
type RecorderJSON struct {
	Label    string              `json:"label"`
	Events   map[string]uint64   `json:"events,omitempty"`
	Dropped  uint64              `json:"dropped_events,omitempty"`
	Counters map[string]uint64   `json:"counters,omitempty"`
	Sharding *ShardingJSON       `json:"sharding,omitempty"`
	Hists    map[string]HistJSON `json:"hists,omitempty"`
	Spans    *SpansJSON          `json:"spans,omitempty"`
	Sites    []SiteJSON          `json:"sites,omitempty"`
	Wasted   map[string]uint64   `json:"wasted_cycles,omitempty"`
	Energy   []EnergySample      `json:"energy,omitempty"`
}

// MetricsJSON is one experiment's sidecar document. Aggregate is the
// order-independent merge of all the experiment's recorders (present
// when there is more than one), so cross-point totals don't have to be
// re-derived downstream.
type MetricsJSON struct {
	Schema     string `json:"schema"`
	Experiment string `json:"experiment"`
	// STMProtocol names the software-TM protocol of the run when it is
	// not the default ("tl2", "norec") so sidecars from protocol-matrix
	// runs are self-describing; absent for tinystm/default runs, which
	// keeps those bytes identical to earlier schema versions.
	STMProtocol string         `json:"stm_protocol,omitempty"`
	Recorders   []RecorderJSON `json:"recorders"`
	Aggregate   *RecorderJSON  `json:"aggregate,omitempty"`
}

func causeMap(v *[NumCauses]uint64) map[string]uint64 {
	var out map[string]uint64
	for c, n := range v {
		if n != 0 {
			if out == nil {
				out = make(map[string]uint64)
			}
			out[Cause(c).String()] = n
		}
	}
	return out
}

// spansJSON builds the causal-profiler block (nil when no spans ran).
// All ordering is deterministic: thread edges by (aggressor, victim)
// tid, site edges by resolved name pair, threads by tid.
func (r *Recorder) spansJSON() *SpansJSON {
	s := &r.spans
	if s.attempts == 0 && s.lat.N == 0 {
		return nil
	}
	out := &SpansJSON{
		Committed:     s.lat.N,
		Attempts:      s.attempts,
		Fallbacks:     s.fallbackSpans,
		Latency:       qhistJSON(&s.lat),
		ConvoyWindow:  ConvoyWindow,
		ChainLinks:    s.chainLinks,
		ChainMaxDepth: uint64(s.chainMax),
	}
	for tid := range s.threads {
		t := &s.threads[tid]
		out.BusyCycles += t.busy
		out.CriticalPathCycles += t.critical
		if t.spans|t.aborts|t.busy|t.opParks|t.localOps == 0 {
			continue
		}
		tj := ThreadJSON{
			Tid: tid, Spans: t.spans, Fallbacks: t.fallbacks,
			Aborts: t.aborts, WastedCycles: t.wasted,
			BusyCycles: t.busy, CriticalCycles: t.critical,
			BoundaryParks: t.opParks, LocalOps: t.localOps,
		}
		if t.lat.N > 0 {
			q := qhistJSON(&t.lat)
			tj.Latency = &q
		}
		out.Threads = append(out.Threads, tj)
	}
	for _, k := range sortedKeys64(s.threadBlame) {
		a, v := blameUnkey(k)
		c := s.threadBlame[k]
		out.ThreadBlame = append(out.ThreadBlame, BlameEdgeJSON{
			Aggressor: fmt.Sprintf("t%d", a), Victim: fmt.Sprintf("t%d", v),
			Kills: c.kills, WastedCycles: c.wasted,
		})
	}
	siteStr := func(id int32) string {
		if n := r.SiteName(id); n != "" {
			return n
		}
		return "?"
	}
	for _, k := range sortedKeys64(s.siteBlame) {
		a, v := blameUnkey(k)
		c := s.siteBlame[k]
		out.SiteBlame = append(out.SiteBlame, BlameEdgeJSON{
			Aggressor: siteStr(a), Victim: siteStr(v),
			Kills: c.kills, WastedCycles: c.wasted,
		})
	}
	sort.SliceStable(out.SiteBlame, func(i, j int) bool {
		a, b := out.SiteBlame[i], out.SiteBlame[j]
		if a.Aggressor != b.Aggressor {
			return a.Aggressor < b.Aggressor
		}
		return a.Victim < b.Victim
	})
	return out
}

// Summary converts a recorder to its sidecar form.
func (r *Recorder) Summary() RecorderJSON {
	out := RecorderJSON{Label: r.label, Dropped: r.Dropped()}
	for k, n := range r.kindCount {
		if n != 0 {
			if out.Events == nil {
				out.Events = make(map[string]uint64)
			}
			out.Events[Kind(k).String()] = n
		}
	}
	if len(r.counters) > 0 {
		out.Counters = make(map[string]uint64, len(r.counters))
		for k, v := range r.counters {
			out.Counters[k] = v
		}
	}
	if ep := r.counters["sim:epochs"]; ep > 0 {
		bo := r.counters["sim:boundary.ops"]
		lo := r.counters["sim:local.ops"]
		sh := &ShardingJSON{
			Epochs:              ep,
			ParksPerEpoch:       float64(r.counters["sim:parks.op"]) / float64(ep),
			BoundaryOpsPerEpoch: float64(bo) / float64(ep),
		}
		if bo+lo > 0 {
			sh.SerialFraction = float64(bo) / float64(bo+lo)
		}
		out.Sharding = sh
	}
	hists := map[string]*Hist{
		"tx_cycles":       &r.TxCycles,
		"wasted_cycles":   &r.WastedCycles,
		"retries":         &r.Retries,
		"read_at_commit":  &r.ReadAtCommit,
		"write_at_commit": &r.WriteAtCommit,
		"read_at_abort":   &r.ReadAtAbort,
		"write_at_abort":  &r.WriteAtAbort,
	}
	for name, h := range hists {
		if h.N != 0 {
			if out.Hists == nil {
				out.Hists = make(map[string]HistJSON)
			}
			out.Hists[name] = histJSON(h)
		}
	}
	out.Spans = r.spansJSON()
	// Sites sorted by name for a stable sidecar independent of first-use
	// order.
	names := append([]string(nil), r.siteNames...)
	sort.Strings(names)
	for _, name := range names {
		id := r.siteIdx[name]
		s := r.sites[id]
		sj := SiteJSON{
			Site: name, Commits: s.commits,
			Aborts: causeMap(&s.aborts), Wasted: causeMap(&s.wasted),
		}
		if int(id) < len(r.spans.siteLat) && r.spans.siteLat[id].N > 0 {
			q := qhistJSON(r.spans.siteLat[id])
			sj.Latency = &q
		}
		out.Sites = append(out.Sites, sj)
	}
	out.Wasted = causeMap(&r.wasted)
	out.Energy = append(out.Energy, r.energy...)
	return out
}

// TimingJSON is one recorder's entry in the timing sidecar: host
// wall-clock spent simulating that point and the resulting simulation
// rate. Host-side measurements are not deterministic, so they live in a
// separate document and are excluded from the byte-identity guarantee.
type TimingJSON struct {
	Label           string  `json:"label"`
	WallMS          float64 `json:"wall_ms"`
	SimCycles       uint64  `json:"sim_cycles"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec,omitempty"`
}

// TimingDoc is one experiment's timing sidecar document. The engine
// configuration (shards, effective epoch length) and the provenance
// (build, host, flags) are embedded because host wall-clock depends on
// them: a timing sidecar that does not say what produced it cannot be
// compared across runs.
type TimingDoc struct {
	Schema      string `json:"schema"`
	Experiment  string `json:"experiment"`
	Shards      int    `json:"shards,omitempty"`
	EpochCycles uint64 `json:"epoch_cycles,omitempty"`
	STMProtocol string `json:"stm_protocol,omitempty"`
	Provenance
	Points []TimingJSON `json:"points"`
}

// expGroup is one experiment scope's recorders in merge order.
type expGroup struct {
	name string
	recs []*Recorder
}

func (c *Collector) groups() []expGroup {
	var gs []expGroup
	byExp := map[int]int{} // exp index -> gs index
	for _, r := range c.Recorders() {
		gi, ok := byExp[r.exp]
		if !ok {
			gi = len(gs)
			byExp[r.exp] = gi
			gs = append(gs, expGroup{name: c.ExperimentID(r.exp)})
		}
		gs[gi].recs = append(gs[gi].recs, r)
	}
	return gs
}

// docFor builds one experiment group's sidecar document: every
// recorder's summary plus — when the group has more than one — the
// order-independent aggregate merge.
func docFor(g expGroup) MetricsJSON {
	doc := MetricsJSON{Schema: "rtmlab-metrics/v1", Experiment: g.name}
	for _, r := range g.recs {
		doc.Recorders = append(doc.Recorders, r.Summary())
	}
	if len(g.recs) > 1 {
		agg := NewRecorder("aggregate", 0)
		for _, r := range g.recs {
			agg.MergeFrom(r)
		}
		s := agg.Summary()
		doc.Aggregate = &s
	}
	return doc
}

// timing builds a group's timing document; Points is empty when no
// recorder measured wall time.
func (g expGroup) timing() TimingDoc {
	doc := TimingDoc{Schema: "rtmlab-timing/v1", Experiment: g.name}
	for _, r := range g.recs {
		if r.wallNS <= 0 {
			continue
		}
		e := TimingJSON{
			Label:           r.label,
			WallMS:          float64(r.wallNS) / 1e6,
			SimCycles:       r.base,
			SimCyclesPerSec: float64(r.base) / (float64(r.wallNS) / 1e9),
		}
		doc.Points = append(doc.Points, e)
	}
	return doc
}

// WriteMetrics writes one <experiment>.json sidecar and one
// <experiment>.txt summary per experiment scope into dir, plus — when
// wall time was measured — an <experiment>.timing.json with per-point
// host wall-clock and simulated-cycles/sec. The timing sidecar is the
// only non-deterministic output; the .json and .txt stay byte-identical
// at any -j/-shards. A repeated experiment id gets a numeric suffix so
// no scope clobbers another.
func (c *Collector) WriteMetrics(dir string) error {
	if c == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	seen := map[string]int{}
	for _, g := range c.groups() {
		doc := docFor(g)
		doc.STMProtocol = c.stmProtocol
		name := doc.Experiment
		if name == "" {
			name = "run"
		}
		seen[name]++
		if n := seen[name]; n > 1 {
			name = fmt.Sprintf("%s.%d", name, n)
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name+".json"), append(data, '\n'), 0o644); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dir, name+".txt"))
		if err != nil {
			return err
		}
		writeSummaryDoc(f, doc)
		if err := f.Close(); err != nil {
			return err
		}
		if td := g.timing(); len(td.Points) > 0 {
			td.Shards = c.shards
			td.EpochCycles = c.epochCycles
			td.STMProtocol = c.stmProtocol
			td.Provenance = HostProvenance()
			td.Flags = c.flags
			data, err := json.MarshalIndent(td, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(dir, name+".timing.json"), append(data, '\n'), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSummaryDoc(w io.Writer, doc MetricsJSON) {
	fmt.Fprintf(w, "== obs: %s ==\n", doc.Experiment)
	for _, r := range doc.Recorders {
		writeRecorderSummary(w, r)
	}
	if doc.Aggregate != nil {
		writeRecorderSummary(w, *doc.Aggregate)
	}
	fmt.Fprintln(w)
}

// blameTopK is how many blame-graph edges the text summary prints
// (ranked by wasted cycles; the JSON sidecar always carries all edges).
const blameTopK = 5

// topBlame returns the top-K edges by wasted cycles (kills, then name
// pair as deterministic tie-breaks).
func topBlame(edges []BlameEdgeJSON) []BlameEdgeJSON {
	out := append([]BlameEdgeJSON(nil), edges...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.WastedCycles != b.WastedCycles {
			return a.WastedCycles > b.WastedCycles
		}
		if a.Kills != b.Kills {
			return a.Kills > b.Kills
		}
		if a.Aggressor != b.Aggressor {
			return a.Aggressor < b.Aggressor
		}
		return a.Victim < b.Victim
	})
	if len(out) > blameTopK {
		out = out[:blameTopK]
	}
	return out
}

func writeBlameLine(w io.Writer, label string, edges []BlameEdgeJSON) {
	if len(edges) == 0 {
		return
	}
	top := topBlame(edges)
	parts := make([]string, 0, len(top))
	for _, e := range top {
		parts = append(parts, fmt.Sprintf("%s->%s %d kills (%d wasted)",
			e.Aggressor, e.Victim, e.Kills, e.WastedCycles))
	}
	line := fmt.Sprintf("  %s: %s", label, strings.Join(parts, ", "))
	if len(edges) > len(top) {
		line += fmt.Sprintf(" (+%d more edges)", len(edges)-len(top))
	}
	fmt.Fprintln(w, line)
}

func writeSpansSummary(w io.Writer, s *SpansJSON) {
	fmt.Fprintf(w, "  spans: %d committed / %d attempts", s.Committed, s.Attempts)
	if s.Fallbacks > 0 {
		fmt.Fprintf(w, ", %d via fallback", s.Fallbacks)
	}
	l := s.Latency
	fmt.Fprintf(w, "; latency p50 %.0f p99 %.0f p999 %.0f max %d cycles\n",
		l.P50, l.P99, l.P999, l.Max)
	if s.CriticalPathCycles > 0 {
		fmt.Fprintf(w, "  critical path: %d cycles (busy %d, parallelism %.2f)\n",
			s.CriticalPathCycles, s.BusyCycles,
			float64(s.BusyCycles)/float64(s.CriticalPathCycles))
	}
	if s.ChainLinks > 0 {
		fmt.Fprintf(w, "  convoys: %d chain links, max depth %d (window %d cycles)\n",
			s.ChainLinks, s.ChainMaxDepth, s.ConvoyWindow)
	}
	writeBlameLine(w, "blame", s.ThreadBlame)
	writeBlameLine(w, "site blame", s.SiteBlame)
}

func writeRecorderSummary(w io.Writer, r RecorderJSON) {
	fmt.Fprintf(w, "-- %s --\n", r.Label)
	if len(r.Events) > 0 {
		keys := sortedKeys(r.Events)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s %d", k, r.Events[k]))
		}
		line := "  events: " + strings.Join(parts, ", ")
		if r.Dropped > 0 {
			line += fmt.Sprintf(" (%d dropped)", r.Dropped)
		}
		fmt.Fprintln(w, line)
	}
	if s := r.Sharding; s != nil {
		fmt.Fprintf(w, "  sharding: epochs %d, parks/epoch %.2f, boundary-ops/epoch %.2f, serial fraction %.4f\n",
			s.Epochs, s.ParksPerEpoch, s.BoundaryOpsPerEpoch, s.SerialFraction)
	}
	for _, name := range sortedKeys(r.Hists) {
		h := r.Hists[name]
		fmt.Fprintf(w, "  %-16s n=%-8d mean=%.1f", name, h.Count, h.Mean)
		if top := len(h.Buckets) - 1; top > 0 {
			fmt.Fprintf(w, " max<2^%d", top)
		}
		fmt.Fprintln(w)
	}
	if r.Spans != nil {
		writeSpansSummary(w, r.Spans)
	}
	if len(r.Wasted) > 0 {
		var total uint64
		for _, v := range r.Wasted {
			total += v
		}
		parts := make([]string, 0, len(r.Wasted))
		for _, k := range sortedKeys(r.Wasted) {
			parts = append(parts, fmt.Sprintf("%s %d (%.0f%%)", k, r.Wasted[k],
				100*float64(r.Wasted[k])/float64(total)))
		}
		fmt.Fprintln(w, "  wasted cycles: "+strings.Join(parts, ", "))
	}
	if len(r.Sites) > 0 {
		// Only causes that occur anywhere make a column; latency columns
		// appear when any site carries a distribution.
		var causes []string
		seen := map[string]bool{}
		anyLat := false
		for _, s := range r.Sites {
			for c := range s.Aborts {
				if !seen[c] {
					seen[c] = true
					causes = append(causes, c)
				}
			}
			if s.Latency != nil {
				anyLat = true
			}
		}
		sort.Strings(causes)
		fmt.Fprintf(w, "  %-16s %8s", "site", "commits")
		if anyLat {
			fmt.Fprintf(w, " %10s %10s", "p50", "p99")
		}
		for _, c := range causes {
			fmt.Fprintf(w, " %14s", c)
		}
		fmt.Fprintln(w)
		for _, s := range r.Sites {
			fmt.Fprintf(w, "  %-16s %8d", s.Site, s.Commits)
			if anyLat {
				if s.Latency != nil {
					fmt.Fprintf(w, " %10.0f %10.0f", s.Latency.P50, s.Latency.P99)
				} else {
					fmt.Fprintf(w, " %10s %10s", "-", "-")
				}
			}
			for _, c := range causes {
				fmt.Fprintf(w, " %14d", s.Aborts[c])
			}
			fmt.Fprintln(w)
		}
	}
	for _, e := range r.Energy {
		fmt.Fprintf(w, "  energy[%s]: %.4f J over %d cycles (static %.4f, core %.4f, mem %.4f, abort %.4f)\n",
			e.Label, e.Total, e.Cycles, e.Static, e.CoreBusy+e.CoreIdle,
			e.L1+e.L2+e.L3+e.DRAM+e.Coh, e.Abort)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
