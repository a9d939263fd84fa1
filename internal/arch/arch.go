// Package arch describes the simulated machine: cache geometry, access
// latencies, TSX cost parameters and energy coefficients.
//
// The default configuration, Haswell, models the Intel Core i7-4770 used in
// the paper: four physical cores with two hyper-threads each, 32 KB private
// L1D, 256 KB private L2 and an 8 MB shared inclusive L3, running at
// 3.4 GHz. All latencies are in core cycles and all energies in nanojoules;
// they are calibrated for trend fidelity against the paper's measurements,
// not for absolute accuracy.
package arch

import "fmt"

// LineSize is the cache line size in bytes. Haswell uses 64-byte lines and
// RTM detects conflicts at this granularity.
const LineSize = 64

// WordSize is the simulated machine word size in bytes. The simulated
// memory is word-addressable at this granularity (like STAMP's use of
// intptr_t-sized fields).
const WordSize = 8

// PageSize is the virtual memory page size in bytes, used by the page-touch
// fault model.
const PageSize = 4096

// CacheGeom describes one cache level.
type CacheGeom struct {
	SizeBytes int // total capacity
	Ways      int // associativity
}

// Sets returns the number of sets in the cache.
func (g CacheGeom) Sets() int { return g.SizeBytes / (LineSize * g.Ways) }

// Lines returns the total number of lines the cache can hold.
func (g CacheGeom) Lines() int { return g.SizeBytes / LineSize }

// Latency holds the access latencies of the memory hierarchy in cycles.
type Latency struct {
	L1Hit        uint64 // load-to-use on an L1 hit
	L2Hit        uint64 // L1 miss, L2 hit
	L3Hit        uint64 // L2 miss, L3 hit
	Mem          uint64 // L3 miss, DRAM access
	CacheToCache uint64 // dirty line forwarded from a peer core
	Invalidate   uint64 // extra cycles to invalidate remote sharers on a write
	AtomicRMW    uint64 // serialisation cost of a LOCK-prefixed instruction
	// PrefetchNextLine, when set, models the L1 DCU next-line prefetcher:
	// an L1 miss that finds line X in the outer levels also pulls X+1 into
	// the private caches. Off by default (the calibrated configuration);
	// the ablation-prefetch experiment shows the effect. Prefetched lines
	// are not transactionally tracked, but their fills can evict
	// transactional lines — a real TSX hazard.
	PrefetchNextLine bool
	// MemBandwidthGap, when non-zero, models finite DRAM bandwidth: the
	// memory channel serves at most one line fill per gap cycles, and
	// concurrent misses queue behind each other. Zero (the calibrated
	// default) models unlimited bandwidth; the ablation-membw experiment
	// shows the effect. A line (64 B) per 8 cycles at 3.4 GHz is
	// ~27 GB/s, in the right range for two DDR3-1600 channels.
	MemBandwidthGap uint64
}

// TSX holds the cost and capability parameters of the RTM model.
type TSX struct {
	XBeginCost uint64 // cycles to start a transaction (register checkpoint)
	XEndCost   uint64 // cycles to commit
	AbortCost  uint64 // cycles to roll back and deliver the abort status
	XAbortCost uint64 // cycles for an explicit abort
	MaxNest    int    // maximum nesting depth (flattened)
	TickPeriod uint64 // timer-interrupt period in cycles; a tick inside a txn aborts it
	TickJitter uint64 // uniform jitter applied to each tick (deterministic PRNG)
	// ReadSetLevel selects the cache level whose eviction kills the read
	// set: 3 (Haswell: the inclusive L3) or 2 (a hypothetical design that
	// tracks reads only to the private L2 — the ablation-readset
	// experiment probes this counterfactual).
	ReadSetLevel int
}

// STM holds the software-TM cost parameters, shared by every protocol.
// The metadata accesses themselves (lock array, version clock, sequence
// lock) go through the simulated cache hierarchy and are *not* included
// here.
type STM struct {
	TxBeginCost     uint64 // start: clock sample + descriptor setup
	TxCommitCost    uint64 // commit fixed part: clock increment (CAS)
	ReadInstrCost   uint64 // per-load bookkeeping outside the lock-array access
	WriteInstrCost  uint64 // per-store bookkeeping outside the lock CAS
	CommitPerWrite  uint64 // per write-set entry during write-back
	ValidatePerRead uint64 // per read-set entry during validation/extension
	LockArrayLog2   int    // log2 of the number of lock-array entries (tinystm, tl2)
	// Protocol selects the concurrency-control protocol: "tinystm"
	// (encounter-time locking, the default — "" means the same), "tl2"
	// (commit-time locking) or "norec" (single sequence lock,
	// value-based validation, no lock array). See internal/stm.
	Protocol string
}

// Energy holds the coefficients of the activity-based package energy model.
// Power terms are in watts; event terms in nanojoules per event.
type Energy struct {
	PkgStaticW  float64 // always-on package (uncore, LLC leakage) power
	CoreActiveW float64 // additional power per core while it executes
	CoreIdleW   float64 // power per core while idle/parked
	InstrNJ     float64 // per executed instruction (incl. speculative)
	L1NJ        float64 // per L1 access
	L2NJ        float64 // per L2 access
	L3NJ        float64 // per L3 access
	MemNJ       float64 // per DRAM access
	CohMsgNJ    float64 // per coherence message (invalidation, c2c)
	AbortNJ     float64 // fixed energy per transaction rollback
}

// Sharding configures the epoch-synchronized sharded engine (see
// internal/sim: sharded execution partitions cores across concurrent
// shard workers that synchronize at coherence-epoch boundaries).
type Sharding struct {
	// Shards selects the engine: 0 runs the classic serial min-clock
	// scheduler; > 0 runs the epoch-synchronized sharded engine with that
	// many shard workers (capped at one per physical core). Negative
	// values are invalid; rtmlab resolves its "-shards -1" (auto) from
	// the host before building the config. The simulated semantics of
	// the sharded engine depend only on EpochCycles, never on the worker
	// count, so output is byte-identical for any Shards >= 1.
	Shards int
	// EpochCycles is the coherence-epoch length in simulated cycles. All
	// cross-shard state (cache misses, coherence directory updates,
	// transactional conflict checks) is exchanged at epoch boundaries in
	// (cycle, thread) order. 0 means DefaultEpochCycles.
	EpochCycles uint64
}

// DefaultEpochCycles is the coherence-epoch length used when
// Sharding.EpochCycles is zero.
const DefaultEpochCycles = 4096

// Epoch returns the effective epoch length.
func (s Sharding) Epoch() uint64 {
	if s.EpochCycles == 0 {
		return DefaultEpochCycles
	}
	return s.EpochCycles
}

// Config is a complete machine description.
type Config struct {
	Name           string
	Cores          int     // physical cores
	ThreadsPerCore int     // hardware threads per core (hyper-threading)
	FreqGHz        float64 // clock frequency, for cycles <-> seconds
	// HTFactor is the per-thread slowdown when both hyper-threads of a
	// core are active (shared pipeline/ports): each op costs
	// HTFactor x its solo latency. Two sibling threads then yield
	// 2/HTFactor ~ 1.3x the throughput of one, matching measured SMT
	// gains.
	HTFactor   float64
	L1, L2, L3 CacheGeom
	Lat        Latency
	TSX        TSX
	STM        STM
	Energy     Energy
	Shard      Sharding
}

// MaxThreads returns the total number of hardware threads.
func (c *Config) MaxThreads() int { return c.Cores * c.ThreadsPerCore }

// Seconds converts a cycle count to seconds at the configured frequency.
func (c *Config) Seconds(cycles uint64) float64 {
	return float64(cycles) / (c.FreqGHz * 1e9)
}

// Haswell returns the default machine description modelling the Core
// i7-4770 testbed from the paper.
func Haswell() *Config {
	return &Config{
		Name:           "haswell-i7-4770",
		Cores:          4,
		ThreadsPerCore: 2,
		FreqGHz:        3.4,
		HTFactor:       1.55,
		L1:             CacheGeom{SizeBytes: 32 << 10, Ways: 8},
		L2:             CacheGeom{SizeBytes: 256 << 10, Ways: 8},
		L3:             CacheGeom{SizeBytes: 8 << 20, Ways: 16},
		Lat: Latency{
			L1Hit:        4,
			L2Hit:        12,
			L3Hit:        36,
			Mem:          220,
			CacheToCache: 70,
			Invalidate:   22,
			AtomicRMW:    16,
		},
		TSX: TSX{
			XBeginCost:   45,
			XEndCost:     18,
			AbortCost:    130,
			XAbortCost:   24,
			MaxNest:      7,
			ReadSetLevel: 3,
			TickPeriod:   7_500_000, // ~450 Hz at 3.4 GHz
			TickJitter:   1_000_000,
		},
		// The explicit STM costs are small because the lock-array and
		// clock accesses (which dominate TinySTM's overhead) are simulated
		// as real memory accesses; on real hardware the remaining
		// bookkeeping largely overlaps the data access via ILP.
		STM: STM{
			TxBeginCost:     30,
			TxCommitCost:    20,
			ReadInstrCost:   2,
			WriteInstrCost:  4,
			CommitPerWrite:  6,
			ValidatePerRead: 2,
			LockArrayLog2:   21, // 2M entries: covers 16 MB of words uniquely
		},
		Energy: Energy{
			PkgStaticW:  8.0,
			CoreActiveW: 1.9,
			CoreIdleW:   0.25,
			InstrNJ:     0.25,
			L1NJ:        0.6,
			L2NJ:        1.4,
			L3NJ:        5.0,
			MemNJ:       26.0,
			CohMsgNJ:    2.2,
			AbortNJ:     60.0,
		},
	}
}

// Validate reports whether the configuration is internally consistent.
func (c *Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("cores must be positive, got %d", c.Cores)
	case c.ThreadsPerCore <= 0:
		return fmt.Errorf("threads per core must be positive, got %d", c.ThreadsPerCore)
	case c.MaxThreads() > 32:
		// htm tracks a line's transactional readers in a 32-bit thread
		// mask, and mem a line's sharers in a 32-bit core mask; with at
		// least one thread per core this also bounds the cores.
		return fmt.Errorf("at most 32 hardware threads are supported, got %d", c.MaxThreads())
	case c.FreqGHz <= 0:
		return fmt.Errorf("frequency must be positive, got %g", c.FreqGHz)
	case c.Shard.Shards < 0:
		return fmt.Errorf("shards must be 0 (classic engine) or a positive worker count, got %d", c.Shard.Shards)
	}
	for _, g := range []struct {
		name string
		geom CacheGeom
	}{{"L1", c.L1}, {"L2", c.L2}, {"L3", c.L3}} {
		if g.geom.SizeBytes <= 0 || g.geom.Ways <= 0 {
			return fmt.Errorf("%s geometry invalid: %+v", g.name, g.geom)
		}
		if g.geom.Ways > 16 {
			return fmt.Errorf("%s has %d ways; at most 16 are supported (a set's LRU order is 16 4-bit way numbers in one 64-bit word)", g.name, g.geom.Ways)
		}
		if g.geom.SizeBytes%(LineSize*g.geom.Ways) != 0 {
			return fmt.Errorf("%s size %d not divisible by ways*linesize", g.name, g.geom.SizeBytes)
		}
		if s := g.geom.Sets(); s&(s-1) != 0 {
			return fmt.Errorf("%s set count %d not a power of two", g.name, s)
		}
	}
	if c.TSX.MaxNest < 1 {
		return fmt.Errorf("TSX max nest depth must be >= 1, got %d", c.TSX.MaxNest)
	}
	if c.STM.LockArrayLog2 < 4 || c.STM.LockArrayLog2 > 28 {
		return fmt.Errorf("STM lock array log2 out of range: %d", c.STM.LockArrayLog2)
	}
	switch c.STM.Protocol {
	case "", "tinystm", "tl2", "norec":
	default:
		return fmt.Errorf("unknown STM protocol %q (want tinystm, tl2 or norec)", c.STM.Protocol)
	}
	return nil
}
