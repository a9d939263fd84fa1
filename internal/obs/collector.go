package obs

import (
	"sort"
	"sync"
)

// Collector owns the recorders of one rtmlab invocation. Experiment
// points run concurrently on the runner pool, so recorders register in
// completion order; the collector keys each recorder by (experiment
// sequence, point index, sub index) and every exporter walks them in key
// order, which makes the merged output byte-identical at any -j.
//
// All methods are safe on a nil *Collector (they no-op and hand out nil
// recorders), so call sites need no "is observability on" branching.
type Collector struct {
	// Limit is the per-track ring capacity handed to new recorders
	// (0 = unbounded). Without Rings it only sets how many events each
	// track reports as dropped.
	Limit int
	// Rings asks new recorders to store their events, which only
	// WriteChromeTrace reads. Without it they count events and store
	// none; every metrics sidecar byte is the same either way.
	Rings bool

	mu   sync.Mutex
	exps []string
	recs []*Recorder
	subs map[[2]int]int // (exp, point) -> next sub index

	// Run configuration stamped into the sidecars (see SetRunConfig);
	// zero values mean the classic serial engine and the default
	// (tinystm) protocol.
	shards      int
	epochCycles uint64
	stmProtocol string
	// flags is the producing command's full flag set (see SetFlags).
	flags map[string]string
}

// SetRunConfig records the run configuration so the sidecars are
// self-describing: shards and the effective epoch length in simulated
// cycles, and the STM protocol when it is not the default ("" for
// tinystm). Host wall-clock depends on the engine knobs, and semantic
// metrics depend on the protocol, so a sidecar without them cannot be
// compared across runs.
func (c *Collector) SetRunConfig(shards int, epochCycles uint64, stmProtocol string) {
	c.shards = shards
	c.epochCycles = epochCycles
	c.stmProtocol = stmProtocol
}

// SetFlags records the producing command's full flag set, name to
// value, for the timing sidecars' provenance.
func (c *Collector) SetFlags(flags map[string]string) { c.flags = flags }

// NewCollector returns a collector whose recorders keep at most limit
// events per track once Rings is set, and count them otherwise.
func NewCollector(limit int) *Collector {
	return &Collector{Limit: limit, subs: make(map[[2]int]int)}
}

// BeginExperiment opens a new experiment scope. The harness drives
// experiments sequentially, so the scope sequence is deterministic even
// though the points inside each experiment fan out.
func (c *Collector) BeginExperiment(id string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.exps = append(c.exps, id)
	c.mu.Unlock()
}

// Recorder creates and registers a recorder for one run of the given
// point of the current experiment. Calls from different points may race
// (each point runs on its own worker); calls within one point are
// sequential, so the per-(experiment, point) sub counter is
// deterministic — together the (exp, point, sub) key is stable across
// worker counts. Returns nil when the collector is nil.
func (c *Collector) Recorder(point int, label string) *Recorder {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.exps) == 0 {
		c.exps = append(c.exps, "run")
	}
	exp := len(c.exps) - 1
	key := [2]int{exp, point}
	r := newRecorder(label, c.Limit, c.Rings)
	r.exp, r.point, r.sub = exp, point, c.subs[key]
	c.subs[key]++
	c.recs = append(c.recs, r)
	return r
}

// ExperimentID returns the id of experiment scope i.
func (c *Collector) ExperimentID(i int) string {
	if c == nil || i < 0 || i >= len(c.exps) {
		return ""
	}
	return c.exps[i]
}

// Recorders returns every registered recorder sorted by (experiment,
// point, sub) — the canonical merge order.
func (c *Collector) Recorders() []*Recorder {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := append([]*Recorder(nil), c.recs...)
	c.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.exp != b.exp {
			return a.exp < b.exp
		}
		if a.point != b.point {
			return a.point < b.point
		}
		return a.sub < b.sub
	})
	return out
}
