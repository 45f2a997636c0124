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

// TestTileArgsLayout pins the tileArgs field offsets the TA_* defines in
// fused_amd64.s hard-code.
func TestTileArgsLayout(t *testing.T) {
	var a tileArgs
	checks := []struct {
		name string
		got  uintptr
		want uintptr
	}{
		{"coef", unsafe.Offsetof(a.coef), 0},
		{"rows", unsafe.Offsetof(a.rows), 8},
		{"t", unsafe.Offsetof(a.t), 16},
		{"nd", unsafe.Offsetof(a.nd), 24},
		{"u", unsafe.Offsetof(a.u), 32},
		{"dtail", unsafe.Offsetof(a.dtail), 40},
		{"nk", unsafe.Offsetof(a.nk), 48},
		{"m", unsafe.Offsetof(a.m), 56},
		{"cover", unsafe.Offsetof(a.cover), 64},
		{"invH", unsafe.Offsetof(a.invH), 72},
		{"off", unsafe.Offsetof(a.off), 80},
		{"sizeof", unsafe.Sizeof(a), 80 + 8*FusedTile},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("tileArgs %s offset %d, asm expects %d", c.name, c.got, c.want)
		}
	}
}
