package perfmodel

import "time"

// Model compression — the successor papers to the SC '20 source: Lu et
// al., "86 PFLOPS Deep Potential Molecular Dynamics simulation of 100
// million atoms", and Li et al., "Scaling Molecular Dynamics with ab
// initio Accuracy to 149 Nanoseconds per Day" — replaces the embedding
// network with a tabulated piecewise quintic. In the TtS model that is a
// pure compute-term effect: the per-atom work shrinks to
//
//	computeFrac = (FLOPs_total - FLOPs_embed + FLOPs_table) / FLOPs_total
//
// of the uncompressed model's, while the fixed per-step overhead (kernel
// launches, ghost exchange, collective output) is unchanged — which is
// precisely why the successor papers' end-to-end gains at the
// strong-scaling limit are smaller than the raw embedding-work removal
// suggests, and largest at high atoms-per-GPU. The fraction itself comes
// from the analytic operator counts in internal/core
// (Config.FLOPsPerAtomStep / EmbedFLOPsPerAtomStep /
// CompressedEmbedFLOPsPerAtomStep); this package stays calibration-only.
// Those counts are full-stride — every padded neighbor slot is charged,
// the paper's NVPROF convention on the branch-free padded layout. The
// evaluator's fused table operator and its trimmed batched path execute
// (and perf.Counter charges) real neighbors only; the projection keeps
// the paper's convention on purpose, so it stays comparable with the
// published per-atom FLOP figures.

// CompressedTtS predicts the per-step wall time of one GPU holding n
// atoms when the embedding net is tabulated: the compute term scales by
// computeFrac (in (0, 1]), the fixed overhead does not.
func (s SystemModel) CompressedTtS(m Machine, atomsPerGPU int, mixed bool, computeFrac float64) time.Duration {
	eff, peak, over := s.EffDouble, m.GPUDoubleTF*1e12, s.OverheadDouble
	if mixed {
		eff, peak, over = s.EffMixed, m.GPUSingleTF*1e12, s.OverheadMixed
	}
	compute := float64(atomsPerGPU) * s.FLOPsPerAtom * computeFrac / (eff * peak)
	return time.Duration(compute*float64(time.Second)) + over
}

// CompressedGain is the projected end-to-end speedup of compression at
// one operating point: TtS(uncompressed)/TtS(compressed), same precision.
func (s SystemModel) CompressedGain(m Machine, atomsPerGPU int, mixed bool, computeFrac float64) float64 {
	return float64(s.TtS(m, atomsPerGPU, mixed)) / float64(s.CompressedTtS(m, atomsPerGPU, mixed, computeFrac))
}
