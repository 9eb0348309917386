package obs

import "sync"

// Span-batch aggregation for the runtime repartitioner. Workers ship one
// KindSpans batch per device per finished step (the cluster package's
// ringLink.FinishStep flushes the device track), so each Add call folds
// exactly one measured step into the device's running statistics. The aggregator extracts the
// per-block compute cost — the signal the measured re-plan prices with —
// and reports running means.

// Compute-span names emitted by the device loop (engine.RunMemberFrom and
// distill.StepObserved). The i-th occurrence of a per-block name inside
// one step batch belongs to the device's i-th hosted block.
const (
	spanTeacherFwd = "teacher_fwd"
	spanStudentFwd = "student_fwd"
	spanStudentBwd = "student_bwd"
	spanUpdate     = "sgd_update"
)

// DeviceStats is one device's aggregated step measurements.
type DeviceStats struct {
	// Steps is how many complete step batches have been folded in.
	Steps int
	// BlockBusy is the mean per-hosted-block compute time in nanoseconds
	// of the device track's clock: teacher forward + student forward +
	// student backward, plus an equal share of the step's optimizer update
	// (the update span covers every hosted block at once). Index i is the
	// device's i-th block in plan order.
	BlockBusy []float64
}

// StepAggregator folds per-step span batches into per-device statistics.
// Safe for concurrent use, though in a cluster run only the attempt core
// calls Add and Stats, both on the coordinator's driver goroutine.
type StepAggregator struct {
	mu   sync.Mutex
	devs map[string]*devAgg
}

type devAgg struct {
	steps int
	busy  []float64 // summed per-block busy ns
}

// NewStepAggregator returns an empty aggregator.
func NewStepAggregator() *StepAggregator {
	return &StepAggregator{devs: make(map[string]*devAgg)}
}

// Add folds one span batch for the named device track. Batches that
// contain no complete per-block compute triple (e.g. a trailing flush of
// wait-only spans) are ignored. A batch whose block count disagrees with
// the device's history resets that device's accumulation — the hosted
// block set changed, so older measurements no longer describe it.
func (a *StepAggregator) Add(track string, spans []Span) {
	busy, ok := foldStep(spans)
	if !ok {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	d := a.devs[track]
	if d == nil || len(d.busy) != len(busy) {
		d = &devAgg{busy: make([]float64, len(busy))}
		a.devs[track] = d
	}
	for i, v := range busy {
		d.busy[i] += v
	}
	d.steps++
}

// foldStep extracts per-block busy times from one step's spans. ok is
// false when the batch holds no complete compute triples.
func foldStep(spans []Span) (busy []float64, ok bool) {
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
		return nil, false
	}
	busy = make([]float64, nb)
	share := float64(update) / float64(nb)
	for i := 0; i < nb; i++ {
		busy[i] = float64(tf[i]+sf[i]+sb[i]) + share
	}
	return busy, true
}

// Stats returns a snapshot of every device's running means, keyed by
// track name. The returned slices are private copies.
func (a *StepAggregator) Stats() map[string]DeviceStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]DeviceStats, len(a.devs))
	for name, d := range a.devs {
		st := DeviceStats{Steps: d.steps, BlockBusy: make([]float64, len(d.busy))}
		if d.steps > 0 {
			for i, v := range d.busy {
				st.BlockBusy[i] = v / float64(d.steps)
			}
		}
		out[name] = st
	}
	return out
}

// Reset discards all accumulated measurements. The repartition controller
// calls it after a cut so the new placement is measured from scratch.
func (a *StepAggregator) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.devs = make(map[string]*devAgg)
}
