package obs

// KindCount returns how many events of kind k were ever recorded
// (including ones since overwritten in a ring).
func (r *Recorder) KindCount(k Kind) uint64 { return r.kindCount[k] }

// SpanThreads returns the number of threads with causal state.
func (r *Recorder) SpanThreads() int { return len(r.spans.threads) }
