package stm

// Names of the built-in concurrency-control protocols.
const (
	// TinySTMName selects encounter-time locking with time-based opacity
	// (the default, and the protocol the paper measures).
	TinySTMName = "tinystm"
	// TL2Name selects commit-time locking with read-time version checks.
	TL2Name = "tl2"
	// NOrecName selects the single-sequence-lock, value-validating
	// protocol with no lock array.
	NOrecName = "norec"
)

// Protocols lists the selectable protocol names in documentation order.
func Protocols() []string { return []string{TinySTMName, TL2Name, NOrecName} }

// Protocol is one software TM concurrency-control engine behind the Txn
// API. The dispatcher (Txn.Begin/Load/Store/Commit) owns everything the
// protocols share — the activity guard, fixed instruction costs, the
// write buffer with read-own-write, read-only commits and counters — and
// delegates the protocol-specific steps here. All protocol metadata (the
// versioned-lock array, the global version clock, or NOrec's sequence
// lock) lives in *simulated* memory, so each protocol's characteristic
// cache and coherence traffic is modelled for real.
//
// The interface is sealed (shardInit is unexported): protocols are
// defined in this package and selected by name through the arch config.
type Protocol interface {
	// Begin establishes the transaction's snapshot (samples the version
	// clock, or waits out a NOrec writer). The dispatcher has already
	// charged the fixed begin cost.
	Begin(t *Txn)
	// Load performs the transactional read protocol for addr. The
	// dispatcher has already served read-own-write from the write
	// buffer.
	Load(t *Txn, addr uint64) int64
	// Store performs the transactional write protocol for addr. The
	// dispatcher has already updated an existing write-buffer entry.
	Store(t *Txn, addr uint64, val int64)
	// Commit runs the writing-commit sequence; read-only commits are
	// completed by the dispatcher without protocol involvement (all
	// three protocols make them free).
	Commit(t *Txn)
	// shardInit binds the protocol's exclusive boundary closures on tx
	// (sealed: see package shard.go).
	shardInit(t *Txn)
}

// protocolFor resolves a validated protocol name ("" = default).
func protocolFor(name string) Protocol {
	switch name {
	case "", TinySTMName:
		return tinySTM{}
	case TL2Name:
		return tl2{}
	case NOrecName:
		return norec{}
	}
	panic("stm: unknown protocol " + name)
}
