package learn

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// RoundReport is one round of the convergence report. RMSE fields are
// measured at exploration time — i.e. with the weights the round explored
// with — so round 0 reflects the deliberately under-trained ensemble and
// the final round the fully grown dataset.
type RoundReport struct {
	Round int `json:"round"`
	// DatasetSize is the training-pool size the round's replicas were
	// trained on (before this round's harvest lands).
	DatasetSize int `json:"dataset_size"`
	// Explored counts the captured exploration frames scored this round.
	Explored int `json:"explored_frames"`
	// Bucket counts over the explored frames.
	Accurate  int `json:"accurate"`
	Candidate int `json:"candidate"`
	Failed    int `json:"failed"`
	// CandidateFrac is (Candidate + Failed) / Explored — the fraction of
	// visited configurations the ensemble cannot yet be trusted on, the
	// loop's convergence criterion.
	CandidateFrac float64 `json:"candidate_frac"`
	// MeanDev and MaxDev summarize the per-frame ε_f statistics (eV/A).
	MeanDev float64 `json:"mean_dev_ev_a"`
	MaxDev  float64 `json:"max_dev_ev_a"`
	// Hist is the ε_f histogram over the report's HistEdges bins.
	Hist []int `json:"deviation_hist"`
	// Harvested is how many candidates were labeled and appended this
	// round.
	Harvested int `json:"harvested"`
	// EnergyRMSE (eV/atom) and ForceRMSE (eV/A) are the ensemble-mean
	// errors against the reference labels on the fixed validation set.
	EnergyRMSE float64 `json:"energy_rmse_ev_atom"`
	ForceRMSE  float64 `json:"force_rmse_ev_a"`
	// TrainSteps is the cumulative Adam steps each replica has taken when
	// this round explored.
	TrainSteps int `json:"train_steps"`
}

// Report is the machine-readable convergence report of one active-
// learning run (`dplearn -report`), the JSON artifact the CI uploads.
// HistEdges are the shared bin edges of every round's Hist: bin i counts
// frames with ε_f in [HistEdges[i], HistEdges[i+1]), the last bin is
// unbounded above and also absorbs non-finite statistics.
type Report struct {
	System    string  `json:"system,omitempty"`
	Replicas  int     `json:"replicas"`
	MaxRounds int     `json:"max_rounds"`
	Seed      int64   `json:"seed"`
	Lo        float64 `json:"lo_ev_a"`
	Hi        float64 `json:"hi_ev_a"`
	// ConvergeFrac is the candidate-fraction threshold the loop stops at.
	ConvergeFrac float64 `json:"converge_frac"`
	// HistEdges has len(Hist) entries; the implicit final edge is +Inf.
	HistEdges []float64     `json:"hist_edges_ev_a"`
	Converged bool          `json:"converged"`
	Rounds    []RoundReport `json:"rounds"`
}

// histEdges builds the report's deviation bins around the trust
// thresholds: resolution below lo, the candidate band split in two, and
// coarse overflow bins above hi.
func histEdges(lo, hi float64) []float64 {
	return []float64{0, lo / 4, lo / 2, lo, (lo + hi) / 2, hi, 2 * hi, 4 * hi}
}

// histogram counts devs into the bins defined by edges (last bin
// unbounded, NaN in the last bin).
func histogram(edges []float64, devs []float64) []int {
	h := make([]int, len(edges))
	for _, d := range devs {
		if math.IsNaN(d) {
			h[len(h)-1]++
			continue
		}
		bin := 0
		for i := 1; i < len(edges); i++ {
			if d >= edges[i] {
				bin = i
			}
		}
		h[bin]++
	}
	return h
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Summary returns the human-readable per-round table dplearn prints.
func (r *Report) Summary() string {
	s := "round  dataset  explored  acc  cand  fail  cand%   mean_dev   max_dev   E-RMSE     F-RMSE\n"
	for _, rd := range r.Rounds {
		s += fmt.Sprintf("%5d  %7d  %8d  %3d  %4d  %4d  %5.1f  %9.3e  %8.3e  %9.3e  %9.3e\n",
			rd.Round, rd.DatasetSize, rd.Explored, rd.Accurate, rd.Candidate, rd.Failed,
			100*rd.CandidateFrac, rd.MeanDev, rd.MaxDev, rd.EnergyRMSE, rd.ForceRMSE)
	}
	if r.Converged {
		s += fmt.Sprintf("converged: candidate fraction below %.2f\n", r.ConvergeFrac)
	}
	return s
}
