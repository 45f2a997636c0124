package tensor

import (
	"runtime"
	"strings"

	"deepmd-go/internal/tensor/cpufeat"
)

// Info describes the runtime kernel dispatch state, for startup banners
// (dpmd/dpbench) and the benchmark's host record (bench/host.go).
type Info struct {
	Family   string   `json:"family"`             // active kernel family
	Arch     string   `json:"arch"`               // GOARCH
	Features []string `json:"features,omitempty"` // detected CPU features
	Note     string   `json:"note,omitempty"`     // ignored DEEPMD_KERNEL request
}

// KernelInfo reports which SIMD kernel family the dispatch tables select
// for GEMM and table-lookup calls right now.
func KernelInfo() Info {
	return Info{
		Family:   cpufeat.Active().String(),
		Arch:     runtime.GOARCH,
		Features: cpufeat.Detect().List(),
		Note:     cpufeat.Note(),
	}
}

// String formats the info as a one-line banner body.
func (i Info) String() string {
	var b strings.Builder
	b.WriteString(i.Family)
	b.WriteString(" kernels (")
	b.WriteString(i.Arch)
	if len(i.Features) > 0 {
		b.WriteString(": ")
		b.WriteString(strings.Join(i.Features, " "))
	}
	b.WriteString(")")
	if i.Note != "" {
		b.WriteString("; ")
		b.WriteString(i.Note)
	}
	return b.String()
}
