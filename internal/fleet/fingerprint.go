package fleet

import "gpm/internal/obs"

// serveHash folds every request's routing and completion outcome — in
// canonical arrival order — into one FNV-64a digest. Any drift in arrival
// generation, placement, admission or completion interpolation moves it.
func serveHash(reqs []*request) uint64 {
	h := obs.NewDigest()
	for _, rq := range reqs {
		h.Word(uint64(rq.cohort)<<40 | uint64(rq.client)<<20 | uint64(uint32(rq.seq)))
		h.Float(rq.arriveSec)
		h.Word(uint64(int64(rq.chip))<<32 | uint64(uint32(rq.core)))
		switch {
		case rq.shed:
			h.Word(1)
		case rq.done:
			h.Word(2)
			h.Float(rq.completeSec)
		default:
			h.Word(3)
			h.Float(rq.remaining)
		}
	}
	return h.Sum()
}

// Fingerprint hashes a fleet result bit-exactly: the serving digest, the
// arbiter's epoch log, and every chip's engine fingerprint. This is the
// golden the fleet serving path is pinned by, alongside the cmpsim/trace
// goldens.
func Fingerprint(r *Result) uint64 {
	h := obs.NewDigest()
	h.Word(r.ServeHash)
	h.Word(uint64(r.Arrived))
	h.Word(uint64(r.Completed))
	h.Word(uint64(r.Shed))
	h.Word(uint64(r.Unfinished))
	for _, e := range r.EpochLog {
		h.Float(float64(e.Start))
		h.Float(e.FacilityCapW)
		for i := range e.GrantW {
			h.Float(e.GrantW[i])
			h.Float(e.BacklogInstr[i])
			h.Float(e.DemandInstr[i])
		}
	}
	for _, cs := range r.Cohorts {
		h.Word(uint64(cs.AttainedSLO))
		h.Float(cs.ServedInstr)
	}
	for _, cr := range r.ChipResults {
		h.Word(obs.ResultFingerprint(cr))
	}
	return h.Sum()
}
