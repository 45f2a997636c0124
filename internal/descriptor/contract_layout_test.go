//go:build amd64 && !purego

package descriptor

import (
	"testing"
	"unsafe"
)

// TestContractArgsLayout pins the contractArgs field offsets the CA_*
// defines in contract_amd64.s hard-code.
func TestContractArgsLayout(t *testing.T) {
	var a contractArgs
	checks := []struct {
		name string
		got  uintptr
		want uintptr
	}{
		{"g", unsafe.Offsetof(a.g), 0},
		{"dg", unsafe.Offsetof(a.dg), 8},
		{"rows", unsafe.Offsetof(a.rows), 16},
		{"t", unsafe.Offsetof(a.t), 24},
		{"ab", unsafe.Offsetof(a.ab), 32},
		{"nk", unsafe.Offsetof(a.nk), 40},
		{"m", unsafe.Offsetof(a.m), 48},
		{"sizeof", unsafe.Sizeof(a), 56},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("contractArgs %s offset %d, asm expects %d", c.name, c.got, c.want)
		}
	}
}
