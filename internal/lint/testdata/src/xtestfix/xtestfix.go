// Package xtestfix is tested by an in-package _test.go file and by an
// external package xtestfix_test: the driver must check both, the
// external one after this package so its facts are available.
package xtestfix

// Alloc allocates on every call.
func Alloc(n int) []float64 { return make([]float64, n) }
