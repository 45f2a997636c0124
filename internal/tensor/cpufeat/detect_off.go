//go:build purego || !amd64

package cpufeat

// No probe: Available reports only Generic, and every dispatch table
// selects the portable kernels. This file, not build errors, is what makes
// `-tags purego` a complete fallback build on any GOARCH.
func detect() Features { return Features{} }
