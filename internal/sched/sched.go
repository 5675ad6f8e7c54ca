// Package sched implements the heterogeneous-workload scheduling substrate
// behind the paper's research issues 7–8 (§III-E): MLaroundHPC workloads
// mix simulation tasks with surrogate lookups that are orders of magnitude
// faster ("the ML learnt result can be huge factors (10^5 in our initial
// example) faster than simulated answers"), and the relative mix varies
// dynamically. The package provides three placement strategies — static
// partitioning, a dynamic shared queue, and class-split pools — plus the
// imbalance and utilization metrics that expose the difference.
package sched

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Class labels the heterogeneous task kinds of an MLaroundHPC workload.
type Class int

// Task classes.
const (
	Simulation Class = iota
	Training
	Inference
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Simulation:
		return "simulation"
	case Training:
		return "training"
	default:
		return "inference"
	}
}

// Task is one schedulable unit of work.
type Task struct {
	ID    int
	Class Class
	// Run executes the task's work.
	Run func()
}

// SpinTask builds a task that burns roughly the given amount of CPU work
// (a deterministic arithmetic loop, so results are comparable across
// strategies without timer sleep noise).
func SpinTask(id int, class Class, iterations int) Task {
	return Task{ID: id, Class: class, Run: func() {
		x := 1.0
		for i := 0; i < iterations; i++ {
			x = x*1.0000001 + 1e-9
		}
		atomic.StoreUint64(&sink, math.Float64bits(x))
	}}
}

// sink defeats dead-code elimination of SpinTask loops; stored atomically
// because tasks run concurrently.
var sink uint64

// Result captures one scheduling run.
type Result struct {
	Strategy string
	Makespan time.Duration
	// BusyTime is the per-worker total execution time.
	BusyTime []time.Duration
	// TaskCount is the per-worker number of executed tasks.
	TaskCount []int
}

// Imbalance returns (max busy − min busy)/mean busy: 0 for perfect balance.
func (r *Result) Imbalance() float64 {
	if len(r.BusyTime) == 0 {
		return 0
	}
	minB, maxB, sum := r.BusyTime[0], r.BusyTime[0], time.Duration(0)
	for _, b := range r.BusyTime {
		if b < minB {
			minB = b
		}
		if b > maxB {
			maxB = b
		}
		sum += b
	}
	mean := float64(sum) / float64(len(r.BusyTime))
	if mean == 0 {
		return 0
	}
	return float64(maxB-minB) / mean
}

// Utilization returns total busy time divided by workers × makespan.
func (r *Result) Utilization() float64 {
	if r.Makespan == 0 || len(r.BusyTime) == 0 {
		return 0
	}
	var sum time.Duration
	for _, b := range r.BusyTime {
		sum += b
	}
	return float64(sum) / (float64(r.Makespan) * float64(len(r.BusyTime)))
}

// RunStatic pre-assigns tasks round-robin and lets each worker drain its
// own list: the placement that ignores heterogeneity and suffers when
// cheap inferences and expensive simulations interleave unevenly.
func RunStatic(tasks []Task, workers int) (*Result, error) {
	if workers < 1 {
		return nil, fmt.Errorf("sched: workers=%d", workers)
	}
	assign := make([][]Task, workers)
	for i, t := range tasks {
		w := i % workers
		assign[w] = append(assign[w], t)
	}
	res := &Result{Strategy: "static", BusyTime: make([]time.Duration, workers), TaskCount: make([]int, workers)}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t0 := time.Now()
			for _, t := range assign[w] {
				t.Run()
				res.TaskCount[w]++
			}
			res.BusyTime[w] = time.Since(t0)
		}(w)
	}
	wg.Wait()
	res.Makespan = time.Since(start)
	return res, nil
}

// RunDynamic drains a shared queue: the dynamic load-balancing answer to
// heterogeneity ("runtime systems that are capable of real-time
// performance tuning and adaptive execution for workloads comprised of
// multiple heterogeneous tasks", issue 8).
func RunDynamic(tasks []Task, workers int) (*Result, error) {
	if workers < 1 {
		return nil, fmt.Errorf("sched: workers=%d", workers)
	}
	queue := make(chan Task, len(tasks))
	for _, t := range tasks {
		queue <- t
	}
	close(queue)
	res := &Result{Strategy: "dynamic", BusyTime: make([]time.Duration, workers), TaskCount: make([]int, workers)}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var busy time.Duration
			for t := range queue {
				t0 := time.Now()
				t.Run()
				busy += time.Since(t0)
				res.TaskCount[w]++
			}
			res.BusyTime[w] = busy
		}(w)
	}
	wg.Wait()
	res.Makespan = time.Since(start)
	return res, nil
}

// RunSplitByClass dedicates worker sub-pools to task classes, sized
// proportionally to each class's task count (minimum one worker per
// non-empty class): the "load balancing the unlearnt and learnt
// separately" alternative from §III-A. Within each pool the queue is
// dynamic.
func RunSplitByClass(tasks []Task, workers int) (*Result, error) {
	if workers < 1 {
		return nil, fmt.Errorf("sched: workers=%d", workers)
	}
	byClass := map[Class][]Task{}
	for _, t := range tasks {
		byClass[t.Class] = append(byClass[t.Class], t)
	}
	classes := make([]Class, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	// Deterministic order.
	for i := 0; i < len(classes); i++ {
		for j := i + 1; j < len(classes); j++ {
			if classes[j] < classes[i] {
				classes[i], classes[j] = classes[j], classes[i]
			}
		}
	}
	if len(classes) > workers {
		return nil, fmt.Errorf("sched: %d classes but only %d workers", len(classes), workers)
	}
	// Proportional pool sizing with one-worker floor.
	pool := map[Class]int{}
	remaining := workers
	for _, c := range classes {
		pool[c] = 1
		remaining--
	}
	for remaining > 0 {
		// Give the next worker to the class with the most tasks per worker.
		var best Class
		bestRatio := -1.0
		for _, c := range classes {
			r := float64(len(byClass[c])) / float64(pool[c])
			if r > bestRatio {
				bestRatio = r
				best = c
			}
		}
		pool[best]++
		remaining--
	}
	res := &Result{Strategy: "split-by-class", BusyTime: make([]time.Duration, workers), TaskCount: make([]int, workers)}
	start := time.Now()
	var wg sync.WaitGroup
	workerID := 0
	for _, c := range classes {
		queue := make(chan Task, len(byClass[c]))
		for _, t := range byClass[c] {
			queue <- t
		}
		close(queue)
		for k := 0; k < pool[c]; k++ {
			w := workerID
			workerID++
			wg.Add(1)
			go func(w int, queue chan Task) {
				defer wg.Done()
				var busy time.Duration
				for t := range queue {
					t0 := time.Now()
					t.Run()
					busy += time.Since(t0)
					res.TaskCount[w]++
				}
				res.BusyTime[w] = busy
			}(w, queue)
		}
	}
	wg.Wait()
	res.Makespan = time.Since(start)
	return res, nil
}

// MixedWorkload builds the E10 scheduler workload: nSim expensive
// simulation tasks of VARYING cost (1–3x the base, as real simulations at
// different state points vary) and nInfer cheap inference tasks, arriving
// in an interleaved order. The cost ratio mirrors the paper's 10^k
// surrogate/simulation separation (bounded to keep test runtimes sane);
// the cost variance and arrival order are what break static placement —
// "the relative values will even vary over execution time" (issue 8).
func MixedWorkload(nSim, nInfer, simIters, inferIters int) []Task {
	tasks := make([]Task, 0, nSim+nInfer)
	id := 0
	for i := 0; i < nSim; i++ {
		// Deterministic 1x..4x cost spread across simulations: state
		// points differ in equilibration cost, so per-task cost cannot be
		// predicted by class alone — the heterogeneity static round-robin
		// cannot see. Simulations head the queue (the wrapper's cold-start
		// phase), inferences stream in behind them.
		tasks = append(tasks, SpinTask(id, Simulation, simIters*(1+i%4)))
		id++
	}
	for i := 0; i < nInfer; i++ {
		tasks = append(tasks, SpinTask(id, Inference, inferIters))
		id++
	}
	return tasks
}
