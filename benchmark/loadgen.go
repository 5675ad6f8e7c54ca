package main

import (
	"errors"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/netserve"
	"repro/internal/xrand"
)

// Failure kinds: every attempted row ends as OK or as exactly one of
// these, so attempted = ok + Σ fails is checked on every run.
const (
	failRetry    = iota // shed by admission after the client's retry budget
	failExpired         // deadline passed before admission
	failShed            // refused by an open circuit breaker
	failOverflow        // open loop: the in-flight window was full when the row fell due
	failError           // anything else (transport, server error, oracle failure)
	nFailKinds
)

var failNames = [nFailKinds]string{"retry", "expired", "shed", "overflow", "error"}

func classify(err error) int {
	switch {
	case errors.Is(err, netserve.ErrRetry):
		return failRetry
	case errors.Is(err, netserve.ErrExpired):
		return failExpired
	case errors.Is(err, netserve.ErrCircuitOpen):
		return failShed
	default:
		return failError
	}
}

// tally is one goroutine's private share of a run's result; nothing in
// it is shared until the goroutine hands it in.
type tally struct {
	rec       winRec
	attempted int64 // rows
	ok        int64
	fails     [nFailKinds]int64
	sloOK     int64 // OK rows whose call met the workload's latency limit
	gateViol  int64 // OK surrogate answers with std > UQ threshold
	oracle    int64 // OK rows answered by the oracle
	roots     []rootSpan
}

// result is a finished measurement.
type result struct {
	tally
	wall time.Duration
	cpu  time.Duration
	win  *windows   // the segment being measured
	wins []*windows // every measured segment, win included
	late hist       // open loop: how late each burst was released
}

// add folds another measured segment into r.
func (r *result) add(o *result) {
	r.absorb(&o.tally)
	r.wall += o.wall
	r.cpu += o.cpu
	r.wins = append(r.wins, o.win)
	r.late.merge(&o.late)
}

func (r *result) absorb(t *tally) {
	t.rec.flush()
	r.attempted += t.attempted
	r.ok += t.ok
	for k := range t.fails {
		r.fails[k] += t.fails[k]
	}
	r.sloOK += t.sloOK
	r.gateViol += t.gateViol
	r.oracle += t.oracle
	r.roots = append(r.roots, t.roots...)
}

func (r *result) failed() int64 {
	var n int64
	for _, f := range r.fails {
		n += f
	}
	return n
}

// rowCall answers one single-row request for a tenant. y and std are the
// caller's buffers; gated reports that the answer came from the
// surrogate (so std[0] must pass the UQ gate).
type rowCall func(tenant int, x, y, std []float64) (gated bool, err error)

// rowDone folds one answered row into the tally: SLO, accuracy against
// the oracle's truth, and the paper's gate.
func (t *tally) rowDone(now time.Time, ns int64, sloNS int64, x, y, std []float64, gated bool, err error) {
	if err != nil {
		t.fails[classify(err)]++
		return
	}
	t.rec.record(now, ns)
	t.ok++
	if ns <= sloNS {
		t.sloOK++
	}
	d := y[0] - servingTruth(x)
	t.rec.sq.add(sqErr{d * d, 1})
	if !gated {
		t.oracle++
	} else if std[0] > servingUQThreshold {
		t.gateViol++
	}
}

// rowRun describes one single-row load run; the ladder reuses it to
// enter the same request stream at each layer.
type rowRun struct {
	seed    uint64
	dur     time.Duration
	window  time.Duration
	sloNS   int64
	tenants int
	trace   bool // sample 1 in 64 requests as root spans
	// call builds caller c's entry point (c is also its connection choice).
	call func(c int) rowCall
}

// closedLoop runs `callers` goroutines that each wait for their reply
// before sending the next row: simulation ranks blocked on a lookup.
// Latency is call to return.
func closedLoop(rr rowRun, callers int) *result {
	start := time.Now()
	end := start.Add(rr.dur)
	res := &result{win: newWindows(start, rr.dur, rr.window, 1)}
	tallies := make([]tally, callers)
	var wg sync.WaitGroup
	res.wall, res.cpu = res.win.measure(func() {
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				t := &tallies[c]
				t.rec.w = res.win
				call := rr.call(c)
				rng := xrand.New(rr.seed + uint64(c)*0x9e3779b97f4a7c15)
				x, y, std := make([]float64, 2), make([]float64, 1), make([]float64, 1)
				for i := 0; ; i++ {
					servingInput(rng, x)
					tenant := (c + i) % rr.tenants
					t0 := time.Now()
					if !t0.Before(end) {
						return
					}
					t.attempted++
					gated, err := call(tenant, x, y, std)
					t1 := time.Now()
					t.rowDone(t1, int64(t1.Sub(t0)), rr.sloNS, x, y, std, gated, err)
					if rr.trace && i&63 == 0 {
						t.roots = append(t.roots, rootSpan{t0, t1, tenant})
					}
				}
			}(c)
		}
		wg.Wait()
	})
	for c := range tallies {
		res.absorb(&tallies[c])
	}
	return res
}

// Open-loop schedule: per connection a burst of openBurst single-row
// requests falls due every openBurst/(rate/conns) seconds, the
// connections evenly out of phase. A deterministic schedule with sleeps
// of a millisecond or more keeps timer jitter (tens of µs) small against
// the period; how late the generator actually released each burst is
// reported as loadgen.late_p99_us.
const (
	openBurst = 16
	// openInflight bounds each connection's in-flight rows: a row that
	// falls due with the window full is counted as an overflow failure,
	// never silently skipped.
	openInflight = 8192
	openCallers  = 64
)

const prSetTimerslack = 29 // PR_SET_TIMERSLACK, in ns, for the calling thread

type openJob struct {
	due    time.Time
	tenant int
	x      [2]float64
}

// sleepUntil blocks the calling thread in nanosleep(2) until t.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-arms
	}
}

// openLoop offers rows on a fixed schedule whether or not earlier rows
// have been answered: independent users. Each row is handed to a
// pre-started caller goroutine and timed from when it was *due*, so a
// stall is charged to every row that waited behind it.
func openLoop(rr rowRun, conns int, rate float64) *result {
	period := time.Duration(float64(openBurst) * float64(conns) / rate * float64(time.Second))
	// Callers are pre-started and parked on their channel before the
	// clock starts.
	jobs := make([]chan openJob, conns)
	tallies := make([]tally, conns*openCallers)
	gens := make([]tally, conns)
	lates := make([]hist, conns)
	var callersWG, gensWG sync.WaitGroup
	ready := make(chan struct{})
	var start time.Time
	res := &result{}
	for c := 0; c < conns; c++ {
		jobs[c] = make(chan openJob, openInflight) // the in-flight window
		for k := 0; k < openCallers; k++ {
			callersWG.Add(1)
			go func(c, k int) {
				defer callersWG.Done()
				t := &tallies[c*openCallers+k]
				call := rr.call(c)
				y, std := make([]float64, 1), make([]float64, 1)
				<-ready
				t.rec.w = res.win
				n := 0
				for j := range jobs[c] {
					x := j.x[:]
					gated, err := call(j.tenant, x, y, std)
					now := time.Now()
					t.rowDone(now, int64(now.Sub(j.due)), rr.sloNS, x, y, std, gated, err)
					if n++; rr.trace && n&63 == 0 {
						t.roots = append(t.roots, rootSpan{j.due, now, j.tenant})
					}
				}
			}(c, k)
		}
	}
	start = time.Now().Add(2 * time.Millisecond)
	end := start.Add(rr.dur)
	res.win = newWindows(start, rr.dur, rr.window, 1)
	close(ready)
	res.wall, res.cpu = res.win.measure(func() {
		for c := 0; c < conns; c++ {
			gensWG.Add(1)
			go func(c int) {
				defer gensWG.Done()
				// Go's timers round to a millisecond when the process is idle
				// (netpoll's epoll timeout), which would make every burst up
				// to a millisecond late. A thread of the generator's own in
				// nanosleep(2), with the kernel's default 50 µs timer slack
				// turned off, keeps lateness to tens of µs. The thread is
				// never unlocked, so it ends with the goroutine and its
				// slack setting goes with it.
				runtime.LockOSThread()
				syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
				g := &gens[c]
				rng := xrand.New(rr.seed + uint64(c)*0x9e3779b97f4a7c15)
				due := start.Add(period * time.Duration(c) / time.Duration(conns))
				for n := 0; due.Before(end); due = due.Add(period) {
					sleepUntil(due)
					lates[c].add(int64(time.Since(due)))
					for i := 0; i < openBurst; i++ {
						j := openJob{due: due, tenant: n % rr.tenants}
						servingInput(rng, j.x[:])
						n++
						g.attempted++
						select {
						case jobs[c] <- j:
						default:
							g.fails[failOverflow]++
						}
					}
				}
				close(jobs[c])
			}(c)
		}
		gensWG.Wait()
	})
	callersWG.Wait()
	for i := range gens {
		res.absorb(&gens[i])
		res.late.merge(&lates[i])
	}
	for i := range tallies {
		res.absorb(&tallies[i])
	}
	return res
}
