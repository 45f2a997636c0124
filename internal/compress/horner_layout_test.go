//go:build amd64 && !purego

package compress

import (
	"testing"
	"unsafe"
)

// TestHornerArgsLayout pins the hornerArgs field offsets the HA_* defines
// in horner_amd64.s hard-code.
func TestHornerArgsLayout(t *testing.T) {
	var a hornerArgs
	checks := []struct {
		name string
		got  uintptr
		want uintptr
	}{
		{"cs", unsafe.Offsetof(a.cs), 0},
		{"g", unsafe.Offsetof(a.g), 8},
		{"dg", unsafe.Offsetof(a.dg), 16},
		{"m", unsafe.Offsetof(a.m), 24},
		{"u", unsafe.Offsetof(a.u), 32},
		{"invH", unsafe.Offsetof(a.invH), 40},
		{"sizeof", unsafe.Sizeof(a), 48},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("hornerArgs %s offset %d, asm expects %d", c.name, c.got, c.want)
		}
	}
}
