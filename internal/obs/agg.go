package obs

// The span fold of the runtime repartitioner. Workers ship one KindSpans
// batch per device per finished step (the cluster package's
// ringLink.FinishStep flushes the device track), so one batch measures
// one step of one device; BlockBusy extracts the per-block compute cost
// the measured re-plan prices with.

// Compute-span names emitted by the device loop (engine.RunMemberFrom and
// distill.StepObserved). The i-th occurrence of a per-block name inside
// one step batch belongs to the device's i-th hosted block.
const (
	spanTeacherFwd = "teacher_fwd"
	spanStudentFwd = "student_fwd"
	spanStudentBwd = "student_bwd"
	spanUpdate     = "sgd_update"
)

// BlockBusy folds one step's span batch into the per-hosted-block
// compute time in nanoseconds of the track's clock: teacher forward +
// student forward + student backward, plus an equal share of the step's
// optimizer update (the update span covers every hosted block at once).
// Index i is the device's i-th block in plan order. It returns nil when
// the batch holds no complete compute triples (e.g. a trailing flush of
// wait-only spans).
func BlockBusy(spans []Span) []float64 {
	var tf, sf, sb []int64
	var update int64
	for _, s := range spans {
		switch s.Name {
		case spanTeacherFwd:
			tf = append(tf, s.Dur)
		case spanStudentFwd:
			sf = append(sf, s.Dur)
		case spanStudentBwd:
			sb = append(sb, s.Dur)
		case spanUpdate:
			update += s.Dur
		}
	}
	nb := len(tf)
	if nb == 0 || len(sf) != nb || len(sb) != nb {
		return nil
	}
	busy := make([]float64, nb)
	share := float64(update) / float64(nb)
	for i := range busy {
		busy[i] = float64(tf[i]+sf[i]+sb[i]) + share
	}
	return busy
}
