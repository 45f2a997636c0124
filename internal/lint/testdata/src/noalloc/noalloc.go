// Package noalloc exercises the noalloc analyzer's root-level checks:
// each construct the analyzer charges, and each idiom it must not.
package noalloc

import (
	"errors"
	"fmt"
	"unsafe"
)

type point struct{ x, y float64 }

var sink any

func clean(v float64) float64 { return 2 * v }

func helper(n int) []int { return make([]int, n) }

//dp:warmup
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	return buf[:n]
}

//dp:noalloc
func Roots(buf []float64, n int) float64 {
	s := make([]float64, n) // want `make allocates`
	buf = append(buf, 1)
	buf = append(buf[:0], 2)
	other := append(s, 3) // want `append result is not assigned back to its argument`
	p := &point{x: 1}     // want `&composite literal allocates`
	sink = n              // want `interface boxing of non-pointer int allocates`
	return clean(other[0]) + p.x + buf[0]
}

//dp:noalloc
func Callees(buf []float64, n int) []float64 {
	_ = helper(n) // want `call to helper may allocate: make allocates at `
	return grow(buf, n)
}

//dp:noalloc
func Concat(a, b string) string {
	return a + b // want `string concatenation allocates`
}

//dp:noalloc
func Indirect(f func()) {
	f() // want `indirect call through a function value cannot be proven allocation-free`
}

// Conversions to unnamed types are conversions, not calls through a
// function value.
//
//dp:noalloc
func Conversions(p *point, s string) (*[2]float64, []byte) {
	q := (*[2]float64)(unsafe.Pointer(p))
	b := []byte(s) // want `string/slice conversion allocates`
	return q, b
}

//dp:noalloc
func BoundClosure(xs []float64) float64 {
	lim := 1.0
	under := func(v float64) bool { return v < lim }
	total := 0.0
	for _, v := range xs {
		if under(v) {
			total += v
		}
	}
	return total
}

//dp:noalloc
func EscapingClosure() func() int {
	n := 0
	return func() int { n++; return n } // want `function literal allocates a closure`
}

func noop() {}

//dp:noalloc
func Statements(xs []float64) {
	go noop() // want `go statement allocates a goroutine`
	for range xs {
		defer noop() // want `defer in a loop allocates per iteration`
	}
}

//dp:noalloc
func ColdPath(n int) error {
	if n < 0 {
		return fmt.Errorf("noalloc: bad n %d", n)
	}
	return nil
}

var errBad = errors.New("noalloc: bad n")

func check(n int) error {
	if n < 0 {
		return errBad
	}
	return nil
}

// A body that ends in `return err` still has a steady state: err may be
// nil.
//
//dp:noalloc
func TrailingErr(a, b string, n int) (string, error) {
	s := a + b // want `string concatenation allocates`
	err := check(n)
	return s, err
}

// A body that ends in an error that cannot be nil has none.
//
//dp:noalloc
func TrailingSentinel(a, b string) (string, error) {
	s := a + b
	return s, errBad
}

//dp:noalloc
func Allowed(n int) int {
	//dp:allow noalloc deliberate growth, asserted by the fixture
	s := make([]int, n)
	return len(s)
}
