//go:build go1.23

// The build constraint raises this file's language version to the one
// iter.Pull needs. The module stays at go 1.22 because modules that
// depend on rtmlab pin that version, and the go command rejects a
// dependency declaring a newer one.

package sim

import "iter"

// pull makes body a coroutine (see iter.Pull). resume runs it until it
// calls suspend or returns; a switch in either direction is a direct
// coroutine switch that bypasses the Go scheduler's run queues. resume
// may be called from inside another coroutine, and suspend then returns
// there; a coroutine must not be resumed while it is itself waiting in
// a resume. suspend returns false only after stop, which the engines
// never call.
func pull(body func(suspend func(struct{}) bool)) (resume func() (struct{}, bool), stop func()) {
	return iter.Pull(iter.Seq[struct{}](body))
}
