package core

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// EffectiveSpeedup evaluates the paper's §III-D formula
//
//	S = Tseq·(Nlookup + Ntrain) / (Tlookup·Nlookup + (Ttrain + Tlearn)·Ntrain)
//
// where Tseq is the sequential simulation time, Ttrain the per-run time of
// the (possibly parallel) training simulations, Tlearn the per-sample
// network training time, Tlookup the per-inference time, Ntrain the number
// of training simulations and Nlookup the number of surrogate inferences.
// All times are in arbitrary but consistent units.
func EffectiveSpeedup(tseq, ttrain, tlearn, tlookup float64, nlookup, ntrain float64) float64 {
	denom := tlookup*nlookup + (ttrain+tlearn)*ntrain
	if denom <= 0 {
		return math.NaN()
	}
	return tseq * (nlookup + ntrain) / denom
}

// SpeedupNoML is the formula's no-learning limit Tseq/Ttrain: with
// Nlookup = 0 only the (parallel) simulation speedup remains.
func SpeedupNoML(tseq, ttrain float64) float64 { return tseq / ttrain }

// SpeedupInfiniteLookup is the large-Nlookup/Ntrain limit Tseq/Tlookup,
// "which can be huge!" (§III-D).
func SpeedupInfiniteLookup(tseq, tlookup float64) float64 { return tseq / tlookup }

// Ledger accumulates measured times and counts from a ShardedWrapper,
// yielding the empirical counterpart of the effective-speedup formula.
// The zero value is ready to use.
type Ledger struct {
	// Simulation (oracle) executions that produced training data.
	NTrain  int
	SimTime time.Duration
	// Successful surrogate lookups.
	NLookup    int
	LookupTime time.Duration
	// Lookups whose UQ gate failed (charged as overhead, answered by sim).
	NRejected    int
	RejectedTime time.Duration
	// Failed oracle runs (errors). The paper notes "training needs both
	// successful and unsuccessful runs"; failures are counted but carry
	// no training sample here.
	NFailed    int
	FailedTime time.Duration
	// Network training.
	NTrainingRuns int
	LearnTime     time.Duration
	LearnSamples  int
}

// RecordLookup charges one served surrogate inference.
func (l *Ledger) RecordLookup(d time.Duration) {
	l.NLookup++
	l.LookupTime += d
}

// RecordRejectedLookup charges an inference whose UQ gate failed.
func (l *Ledger) RecordRejectedLookup(d time.Duration) {
	l.NRejected++
	l.RejectedTime += d
}

// RecordTraining charges one surrogate fit over nSamples.
func (l *Ledger) RecordTraining(d time.Duration, nSamples int) {
	l.NTrainingRuns++
	l.LearnTime += d
	l.LearnSamples += nSamples
}

// MeanSimTime returns the mean duration of a successful oracle run.
func (l *Ledger) MeanSimTime() time.Duration {
	if l.NTrain == 0 {
		return 0
	}
	return l.SimTime / time.Duration(l.NTrain)
}

// MeanLookupTime returns the mean duration of a served lookup.
func (l *Ledger) MeanLookupTime() time.Duration {
	if l.NLookup == 0 {
		return 0
	}
	return l.LookupTime / time.Duration(l.NLookup)
}

// MeanLearnTimePerSample returns Tlearn, the per-sample training cost.
func (l *Ledger) MeanLearnTimePerSample() time.Duration {
	if l.LearnSamples == 0 {
		return 0
	}
	return l.LearnTime / time.Duration(l.LearnSamples)
}

// SurrogateFraction returns the fraction of answered queries served by the
// surrogate.
func (l *Ledger) SurrogateFraction() float64 {
	total := l.NLookup + l.NTrain
	if total == 0 {
		return 0
	}
	return float64(l.NLookup) / float64(total)
}

// EffectiveSpeedup evaluates the paper's formula on the measured means,
// taking the mean measured run time as Tseq. SimTime sums each run's own
// duration, so it does not shrink when the wrapper fans runs out over
// OracleWorkers: trainParallelism is how many ran at once (the worker
// count, or a training farm's width), and Ttrain is Tseq divided by it.
func (l *Ledger) EffectiveSpeedup(trainParallelism float64) float64 {
	if l.NLookup == 0 && l.NTrain == 0 {
		return math.NaN()
	}
	if trainParallelism <= 0 {
		trainParallelism = 1
	}
	tseq := l.MeanSimTime().Seconds()
	ttrain := tseq / trainParallelism
	tlearn := l.MeanLearnTimePerSample().Seconds()
	tlookup := l.MeanLookupTime().Seconds()
	return EffectiveSpeedup(tseq, ttrain, tlearn, tlookup, float64(l.NLookup), float64(l.NTrain))
}

// String renders the ledger as a compact report.
func (l Ledger) String() string {
	return fmt.Sprintf(
		"ledger{sim:%d(%.3gs) lookup:%d(%.3gs) rejected:%d failed:%d fits:%d(%.3gs) surrogate-frac:%.1f%%}",
		l.NTrain, l.SimTime.Seconds(),
		l.NLookup, l.LookupTime.Seconds(),
		l.NRejected, l.NFailed,
		l.NTrainingRuns, l.LearnTime.Seconds(),
		100*l.SurrogateFraction(),
	)
}

// ledgerBox is the concurrency shell ShardedWrapper embeds: a Ledger
// behind its own mutex (always acquired after any wrapper state lock).
type ledgerBox struct {
	ledMu  sync.Mutex
	ledger Ledger
}

// Ledger returns a copy of the effective-performance ledger.
func (b *ledgerBox) Ledger() Ledger {
	b.ledMu.Lock()
	defer b.ledMu.Unlock()
	return b.ledger
}

// record applies one ledger mutation under the ledger lock; batch paths
// use it to fold many events into a single lock acquisition.
func (b *ledgerBox) record(f func(l *Ledger)) {
	b.ledMu.Lock()
	f(&b.ledger)
	b.ledMu.Unlock()
}

// recordBatchLookups folds one batched lookup pass — served accepted
// rows and rejected UQ failures, each charged the per-row share of the
// pass — into a single lock acquisition, closure-free so the zero-alloc
// batch serving loop can afford it.
func (b *ledgerBox) recordBatchLookups(per time.Duration, served, rejected int) {
	b.ledMu.Lock()
	for k := 0; k < served; k++ {
		b.ledger.RecordLookup(per)
	}
	for k := 0; k < rejected; k++ {
		b.ledger.RecordRejectedLookup(per)
	}
	b.ledMu.Unlock()
}

// SpeedupCurve sweeps the lookup/train ratio and returns the effective
// speedup at each point: the data behind experiment E1's series. Ratios
// are Nlookup/Ntrain with Ntrain held fixed.
func SpeedupCurve(tseq, ttrain, tlearn, tlookup float64, ntrain float64, ratios []float64) []float64 {
	out := make([]float64, len(ratios))
	for i, r := range ratios {
		out[i] = EffectiveSpeedup(tseq, ttrain, tlearn, tlookup, r*ntrain, ntrain)
	}
	return out
}
