// Package lint is the repo's static-analysis suite: four analyzers that
// turn the invariants the runtime tests sample — bit-identical physics at
// any rank count, zero-alloc steady-state hot paths, a strict
// kernel-dispatch discipline, tagged typed MPI traffic — into properties
// checked at every call site of every build.
//
// The suite is self-hosted on the standard library's go/ast + go/types
// (no golang.org/x/tools dependency): lint.Analyzer/lint.Pass mirror the
// x/tools go/analysis shapes closely enough that the analyzers read like
// ordinary vet passes. internal/lint/driver is the one driver: it
// type-checks the module from source, test files included, in
// dependency order over one in-memory fact store, and `cmd/dplint` runs
// it.
//
// # Analyzer catalog
//
//   - noalloc: functions annotated //dp:noalloc must be steady-state
//     allocation-free, transitively through every module callee (the
//     facts mechanism carries per-function summaries across packages).
//     Blocks that end by returning a non-nil error or panicking are
//     cold paths and exempt; //dp:warmup marks helpers whose only
//     allocations are one-time buffer growth, asserted dynamically by
//     the AllocsPerRun tests this analyzer cross-checks.
//   - determinism: in the packages feeding physics reductions (core, md,
//     domain, mpi, learn, compress, experiments — or any package marked
//     //dp:deterministic), map iteration whose body accumulates floats,
//     grows outer slices, emits output or returns early is flagged
//     (iterate sorted keys instead), as are the process-seeded global
//     math/rand source and time.Now-derived values used as data.
//   - dispatch: in packages using internal/tensor/cpufeat, every switch
//     over cpufeat.Family must cover all families or carry a default
//     (no silent fallthrough column), assembly stub declarations must
//     be //go:noescape, and cpufeat.SetActive may only be called from
//     tests, the cpufeat package itself, or an annotated site.
//   - mpitag: mpi.Comm Send/Recv/Irecv/... call sites must name their
//     tag (no raw integer literals), and a payload crossing Send or
//     Bcast must be one of the wire codec's three kinds ([]float64,
//     []int64, []byte).
//
// # Annotation grammar
//
//   - //dp:noalloc            (func or interface-method doc) — assert the
//     steady-state body allocates nothing; on an interface method it is
//     the contract implementations are held to (dynamically, by tests).
//   - //dp:warmup             (func doc) — allocations are warm-up-only
//     growth; callable from //dp:noalloc contexts, checked dynamically.
//   - //dp:allow <analyzer> <reason> — suppress that analyzer's
//     diagnostics on this line and the next; the reason is mandatory.
//   - //dp:deterministic      (anywhere in a package) — opt the package
//     into the determinism analyzer outside the built-in list.
//
// Malformed //dp: comments are themselves diagnostics, so a typo cannot
// silently disable a check.
package lint

// All returns the full dplint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		NoallocAnalyzer,
		DeterminismAnalyzer,
		DispatchAnalyzer,
		MpitagAnalyzer,
	}
}
