package sched

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func countingTasks(n int, class Class, counter *int64) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{ID: i, Class: class, Run: func() { atomic.AddInt64(counter, 1) }}
	}
	return tasks
}

// totalTasks returns the number of tasks a run executed.
func totalTasks(r *Result) int {
	n := 0
	for _, c := range r.TaskCount {
		n += c
	}
	return n
}

func TestClassStrings(t *testing.T) {
	if Simulation.String() != "simulation" || Training.String() != "training" || Inference.String() != "inference" {
		t.Fatal("class names wrong")
	}
}

func TestRunStaticExecutesAllTasks(t *testing.T) {
	var n int64
	res, err := RunStatic(countingTasks(37, Simulation, &n), 4)
	if err != nil {
		t.Fatal(err)
	}
	if n != 37 {
		t.Fatalf("executed %d tasks want 37", n)
	}
	if totalTasks(res) != 37 {
		t.Fatalf("counted %d tasks want 37", totalTasks(res))
	}
	// Round-robin: worker counts differ by at most 1.
	minC, maxC := res.TaskCount[0], res.TaskCount[0]
	for _, c := range res.TaskCount {
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if maxC-minC > 1 {
		t.Fatalf("static round-robin counts uneven: %v", res.TaskCount)
	}
}

func TestRunDynamicExecutesAllTasks(t *testing.T) {
	var n int64
	res, err := RunDynamic(countingTasks(53, Inference, &n), 5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 53 || totalTasks(res) != 53 {
		t.Fatalf("task conservation broken: %d / %d", n, totalTasks(res))
	}
}

func TestRunSplitByClassExecutesAllTasks(t *testing.T) {
	var n int64
	tasks := append(countingTasks(20, Simulation, &n), countingTasks(30, Inference, &n)...)
	res, err := RunSplitByClass(tasks, 6)
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 || totalTasks(res) != 50 {
		t.Fatalf("task conservation broken: %d / %d", n, totalTasks(res))
	}
}

func TestRunSplitByClassTooFewWorkers(t *testing.T) {
	var n int64
	tasks := append(countingTasks(2, Simulation, &n), countingTasks(2, Inference, &n)...)
	tasks = append(tasks, countingTasks(2, Training, &n)...)
	if _, err := RunSplitByClass(tasks, 2); err == nil {
		t.Fatal("3 classes on 2 workers accepted")
	}
}

func TestInvalidWorkerCounts(t *testing.T) {
	var n int64
	tasks := countingTasks(3, Simulation, &n)
	if _, err := RunStatic(tasks, 0); err == nil {
		t.Fatal("static 0 workers accepted")
	}
	if _, err := RunDynamic(tasks, 0); err == nil {
		t.Fatal("dynamic 0 workers accepted")
	}
	if _, err := RunSplitByClass(tasks, 0); err == nil {
		t.Fatal("split 0 workers accepted")
	}
}

// virtualClock gives tasks a duration in virtual time: Run blocks until
// the clock has passed the task's cost, and the clock moves only when every
// worker that still has work is blocked inside a Run, to the earliest
// finish among them. A run's schedule then depends on the strategy alone,
// not on how many cores the workers share or on which of them the host
// descheduled. The clock is told how many workers drain each queue a task
// is put on: one queue for all of them is RunDynamic, one each RunStatic.
type virtualClock struct {
	mu       sync.Mutex
	perQueue int // workers draining one queue
	now      time.Duration
	inRun    []*virtualTask
	left     []int // unfinished tasks per queue
	// Tasks finished minus tasks started, by instant. A worker never waits
	// between tasks in virtual time, so an instant with a surplus is the
	// busy time of that many workers: they finished there and took no more.
	retired map[time.Duration]int
}

type virtualTask struct {
	queue  int
	finish time.Duration
	wake   chan struct{}
}

func (c *virtualClock) task(id, queue int, class Class, cost time.Duration) Task {
	c.left[queue]++
	return Task{ID: id, Class: class, Run: func() {
		c.mu.Lock()
		v := &virtualTask{queue: queue, finish: c.now + cost, wake: make(chan struct{})}
		c.inRun = append(c.inRun, v)
		c.retired[c.now]--
		c.advance()
		c.mu.Unlock()
		<-v.wake
	}}
}

// advance finishes tasks, earliest first, for as long as no worker is on
// its way to another Run.
func (c *virtualClock) advance() {
	for {
		withWork := 0
		for _, n := range c.left {
			withWork += min(c.perQueue, n)
		}
		if len(c.inRun) == 0 || len(c.inRun) < withWork {
			return
		}
		first := 0
		for i, v := range c.inRun {
			if v.finish < c.inRun[first].finish {
				first = i
			}
		}
		v := c.inRun[first]
		c.inRun = append(c.inRun[:first], c.inRun[first+1:]...)
		c.now = v.finish
		c.left[v.queue]--
		c.retired[c.now]++
		close(v.wake)
	}
}

func TestDynamicBeatsStaticOnHeterogeneousMix(t *testing.T) {
	// Heterogeneous workload: a few expensive sims + many cheap inferences,
	// the composition of MixedWorkload(8, 200, 2_000_000, 2_000) in units of
	// one iteration. Static round-robin strands expensive tasks unevenly;
	// the dynamic queue balances busy time. Busy time is virtual: measured
	// on the wall clock, with spinning tasks, it said who had been
	// descheduled on a box with fewer cores than workers, and the
	// comparison failed about one run in twenty.
	const workers = 4
	imbalance := func(run func([]Task, int) (*Result, error), queues int) float64 {
		clock := &virtualClock{perQueue: workers / queues, left: make([]int, queues), retired: map[time.Duration]int{}}
		var tasks []Task
		add := func(class Class, cost time.Duration) {
			tasks = append(tasks, clock.task(len(tasks), len(tasks)%queues, class, cost))
		}
		for i := 0; i < 8; i++ {
			add(Simulation, time.Duration(2_000_000*(1+i%4)))
		}
		for i := 0; i < 200; i++ {
			add(Inference, 2_000)
		}
		res, err := run(tasks, workers)
		if err != nil {
			t.Fatal(err)
		}
		if totalTasks(res) != len(tasks) {
			t.Fatalf("%s: %d tasks run, want %d", res.Strategy, totalTasks(res), len(tasks))
		}
		if u := res.Utilization(); u <= 0 || u > 1.01 {
			t.Fatalf("%s: utilization %g out of range", res.Strategy, u)
		}
		virtual := &Result{}
		for at, n := range clock.retired {
			for ; n > 0; n-- {
				virtual.BusyTime = append(virtual.BusyTime, at)
			}
		}
		if len(virtual.BusyTime) != workers {
			t.Fatalf("%s: %d workers took part, want %d", res.Strategy, len(virtual.BusyTime), workers)
		}
		return virtual.Imbalance()
	}
	// Round-robin hands the workers 4M, 8M, 12M and 16M iterations of
	// simulation and 50 inferences (0.1M) each: (16-4)/10.1.
	static, dynamic := imbalance(RunStatic, workers), imbalance(RunDynamic, 1)
	if math.Abs(static-12/10.1) > 1e-9 {
		t.Fatalf("static imbalance %.4f, want %.4f", static, 12/10.1)
	}
	if dynamic >= static {
		t.Fatalf("dynamic imbalance %.3f not below static %.3f", dynamic, static)
	}
	t.Logf("imbalance: static %.3f, dynamic %.3f", static, dynamic)
}

func TestImbalanceValues(t *testing.T) {
	r := &Result{BusyTime: []time.Duration{100, 100, 100}}
	if r.Imbalance() != 0 {
		t.Fatalf("balanced imbalance %g", r.Imbalance())
	}
	r = &Result{BusyTime: []time.Duration{0, 200}}
	if r.Imbalance() != 2 {
		t.Fatalf("imbalance %g want 2", r.Imbalance())
	}
	empty := &Result{}
	if empty.Imbalance() != 0 || empty.Utilization() != 0 {
		t.Fatal("empty result metrics should be 0")
	}
}

func TestSpinTaskRuns(t *testing.T) {
	task := SpinTask(1, Training, 1000)
	if task.Class != Training || task.ID != 1 {
		t.Fatal("task metadata wrong")
	}
	task.Run() // must not panic
}

func TestMixedWorkloadComposition(t *testing.T) {
	tasks := MixedWorkload(3, 7, 10, 10)
	if len(tasks) != 10 {
		t.Fatalf("%d tasks want 10", len(tasks))
	}
	sims, infs := 0, 0
	for _, task := range tasks {
		switch task.Class {
		case Simulation:
			sims++
		case Inference:
			infs++
		}
	}
	if sims != 3 || infs != 7 {
		t.Fatalf("composition %d/%d want 3/7", sims, infs)
	}
}
