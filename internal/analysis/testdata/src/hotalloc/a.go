// Package hotfix exercises the hotalloc pass.
package hotfix

import "fmt"

type T struct{ a, b int }

type state struct {
	buf []int
	log []T
	m   map[int]int
}

//rtm:hot
func escapes() *T {
	return &T{a: 1} // want `escapes to the heap`
}

//rtm:hot
func sliceLit() []int {
	return []int{1, 2, 3} // want `slice literal`
}

//rtm:hot
func mapMake() map[int]int {
	return make(map[int]int) // want `map creation`
}

//rtm:hot
func chanMake() chan int {
	return make(chan int) // want `channel creation`
}

//rtm:hot
func sliceMake(n int) []int {
	return make([]int, n) // want `make allocates`
}

//rtm:hot
func fmtCall(x int) string {
	return fmt.Sprintf("%d", x) // want `fmt\.Sprintf`
}

func sink(v any) {}

//rtm:hot
func boxArg(x int) {
	sink(x) // want `boxes into interface parameter`
}

//rtm:hot
func boxAssign(x int) {
	var v any
	v = x // want `assignment boxes`
	_ = v
}

//rtm:hot
func boxConvert(x int) any {
	return nil
}

//rtm:hot
func closure() func() int {
	n := 0
	f := func() int { // want `captures n`
		n++
		return n
	}
	return f
}

//rtm:hot
func selfAppendOK(s *state, v int) {
	s.buf = append(s.buf, v)
}

//rtm:hot
func freshAppend(s *state, v int) []int {
	out := append(s.buf, v) // want `self-append`
	return out
}

//rtm:hot
func valueLitOK(a, b int) T {
	return T{a: a, b: b}
}

//rtm:hot
func ptrArgOK(t *T) {
	sink(t) // pointer-shaped: fits the interface data word, no allocation
}

//rtm:hot
func constArgOK() {
	sink("static") // constants box into static data, no allocation
}

// cold allocates freely: no annotation, no findings.
func cold() *T {
	_ = fmt.Sprintf("%d", 1)
	return &T{a: 2}
}

//rtm:hot
func suppressed(s *state) {
	//rtmvet:ignore one-time lazy init to the high-water mark, not steady state
	s.m = make(map[int]int)
}

const prefix = "site:"

//rtm:hot
func concat(name string) string {
	return prefix + name + ":commits" // want `string concatenation`
}

//rtm:hot
func concatAssign(s *string, name string) {
	*s += name // want `string concatenation`
}

//rtm:hot
func constConcatOK() string {
	return prefix + "commits" // constant: folded at compile time
}

type name string

//rtm:hot
func definedConcat(n name) name {
	return n + "!" // want `string concatenation`
}
