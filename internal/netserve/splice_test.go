package netserve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/fleet"
	"repro/internal/serve"
)

// recSink records every answer a Conn hands it: the statuses per id, how
// many came as lost-connection Retries, and the flushes.
type recSink struct {
	mu      sync.Mutex
	got     map[uint64][]byte
	lost    int
	flushes int
}

func newRecSink() *recSink { return &recSink{got: map[uint64][]byte{}} }

func (s *recSink) Answer(frame []byte, lost bool) {
	id, _ := RawResponseID(frame)
	s.mu.Lock()
	s.got[id] = append(s.got[id], frame[lenPrefix+2])
	if lost {
		s.lost++
	}
	s.mu.Unlock()
}

func (s *recSink) Flush() {
	s.mu.Lock()
	s.flushes++
	s.mu.Unlock()
}

// slowStore is an ArtifactStore that takes d to answer, so a call can be
// caught in flight.
type slowStore struct{ d time.Duration }

func (s slowStore) FetchArtifact(string, uint64) ([]byte, uint64, bool, error) {
	time.Sleep(s.d)
	return []byte("weights"), 3, true, nil
}
func (s slowStore) StatArtifact(string) (uint64, bool) { return 3, true }

// TestSpliceContract pins what a Conn owes its splicers when it dies, under
// the two ways a worker connection is lost: a reset, and a blackhole that
// only the stall watch can see. Splices, a query and an artifact call are
// in flight when the fault hits; within a second every splice's sink has
// been answered exactly one Retry under the id its caller sent, the query
// and the artifact call fail with ErrConnLost, and Wait returns.
func TestSpliceContract(t *testing.T) {
	defer func(d time.Duration) { stallTimeout = d }(stallTimeout)
	for _, tc := range []struct {
		name  string
		delay time.Duration // backend and artifact store
		stall time.Duration
	}{
		{"reset", 300 * time.Millisecond, 10 * time.Second},
		{"blackhole", 0, 100 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stallTimeout = tc.stall
			inj := chaos.New(13)
			bk := &testBackend{in: 2, out: 1, delay: tc.delay}
			_, _, addr := newTestServer(t, fleet.Config{}, Config{Artifacts: slowStore{tc.delay}},
				map[string]serve.Backend{"m": bk})
			cn, err := Dial(addr, ClientConfig{Dialer: inj.Dialer(nil)})
			if err != nil {
				t.Fatal(err)
			}
			defer cn.Close()

			// The healthy path: the answer comes back under the caller's id.
			sinks := [2]*recSink{newRecSink(), newRecSink()}
			frame := func(id uint64) []byte {
				f, err := appendRequest(nil, "m", id, 0, FlagNoStd, []float64{1, 2})
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
			if !cn.Splice(sinks[0], frame(1)) || !cn.Flush() {
				t.Fatal("healthy splice refused")
			}
			answered := func() bool {
				sinks[0].mu.Lock()
				defer sinks[0].mu.Unlock()
				return sinks[0].flushes > 0
			}
			for deadline := time.Now().Add(5 * time.Second); !answered() && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			sinks[0].mu.Lock()
			if st := sinks[0].got[1]; len(st) != 1 || st[0] != StatusOK {
				t.Fatalf("healthy splice answered %v", st)
			}
			delete(sinks[0].got, 1)
			sinks[0].mu.Unlock()

			if tc.name == "blackhole" {
				inj.SetBlackhole(true)
			}
			start := time.Now()
			const n = 8
			for i := uint64(0); i < n; i++ {
				if !cn.Splice(sinks[i%2], frame(100+i)) {
					t.Fatalf("splice %d refused on a live connection", i)
				}
			}
			cn.Flush()
			errs := make(chan error, 2)
			go func() {
				_, err := cn.QueryInto("m", []float64{1, 2}, make([]float64, 1), nil, time.Time{})
				errs <- err
			}()
			go func() {
				_, _, _, err := cn.FetchArtifact("k/shard-0", 0)
				errs <- err
			}()
			if tc.name == "reset" {
				time.Sleep(50 * time.Millisecond) // all of it in flight on the server
				inj.KillAll()
			}

			dead := make(chan error, 1)
			go func() { dead <- cn.Wait() }()
			select {
			case err := <-dead:
				if !errors.Is(err, ErrConnLost) {
					t.Errorf("Wait returned %v, want an ErrConnLost", err)
				}
			case <-time.After(time.Second):
				t.Fatal("connection not condemned within 1s of the fault")
			}
			for i := 0; i < 2; i++ {
				if err := <-errs; !errors.Is(err, ErrConnLost) {
					t.Errorf("in-flight call returned %v, want an ErrConnLost", err)
				}
			}
			if el := time.Since(start); el > time.Second {
				t.Errorf("in-flight requests took %v to resolve, want under 1s", el)
			}
			for si, s := range sinks {
				s.mu.Lock()
				if len(s.got) != n/2 || s.lost != n/2 {
					t.Errorf("sink %d: %d ids answered, %d lost, want %d each", si, len(s.got), s.lost, n/2)
				}
				for i := uint64(si); i < n; i += 2 {
					if st := s.got[100+i]; len(st) != 1 || st[0] != StatusRetry {
						t.Errorf("sink %d: id %d answered %v, want one Retry", si, 100+i, st)
					}
				}
				s.mu.Unlock()
			}
			if got := cn.InFlight(); got != 0 {
				t.Errorf("%d splices still in flight on a dead connection", got)
			}
			if cn.Splice(sinks[0], frame(200)) {
				t.Error("a dead connection took a splice")
			}
		})
	}
}

// chanSink signals each answer on a channel.
type chanSink struct{ ch chan byte }

func (s chanSink) Answer(frame []byte, lost bool) { s.ch <- frame[lenPrefix+2] }
func (s chanSink) Flush()                         {}

// TestSpliceSteadyStateAllocs pins the splice path's perf contract: once
// the pools are warm, a splice, its flush and its answer's hand-off
// allocate nothing on either end of the wire.
func TestSpliceSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime drops sync.Pool puts; alloc counts are meaningless")
	}
	bk := &testBackend{in: 2, out: 1}
	_, _, addr := newTestServer(t, fleet.Config{}, Config{}, map[string]serve.Backend{"m": bk})
	cn, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	frame, err := appendRequest(nil, "m", 7, 0, 0, []float64{0.25, -0.5})
	if err != nil {
		t.Fatal(err)
	}
	s := chanSink{make(chan byte, 1)}
	round := func() {
		if !cn.Splice(s, frame) {
			t.Fatal("splice refused")
		}
		cn.Flush()
		if st := <-s.ch; st != StatusOK {
			t.Fatalf("status %d", st)
		}
	}
	for i := 0; i < 512; i++ {
		round()
	}
	if id, _ := RawResponseID(frame); id != 7 {
		t.Fatalf("Splice left id %d in the caller's frame, want its own 7 back", id)
	}
	avg := testing.AllocsPerRun(2000, round)
	if avg > 1.0 {
		t.Fatalf("steady-state splice allocates %.2f objects/op, want ≈ 0", avg)
	}
	t.Logf("splice steady-state allocs/op: %.3f", avg)
}

// slowSink is an ArtifactSink whose installs take d.
type slowSink struct{ d time.Duration }

func (s slowSink) InstallArtifact(string, uint64, []byte) error {
	time.Sleep(s.d)
	return nil
}

// TestStallProbeSparesBusyPeer pushes an artifact whose install outlasts
// stallTimeout several times over, with nothing else on the connection:
// the stall watch's stat probe is answered (StatusError, since the server
// has no ArtifactStore), so the push completes and the connection lives
// on. The blackholed half of the rule is TestResilientArtifactCallBounded.
func TestStallProbeSparesBusyPeer(t *testing.T) {
	defer func(d time.Duration) { stallTimeout = d }(stallTimeout)
	stallTimeout = 100 * time.Millisecond
	bk := &testBackend{in: 2, out: 1}
	_, srv, addr := newTestServer(t, fleet.Config{}, Config{Install: slowSink{6 * stallTimeout}},
		map[string]serve.Backend{"m": bk})
	cn, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	if err := cn.PushArtifact("m/shard-0", 3, []byte("weights")); err != nil {
		t.Fatalf("slow push: %v", err)
	}
	if _, err := query(cn, "m", []float64{1, 2}, time.Time{}); err != nil {
		t.Fatalf("query after the slow push: %v", err)
	}
	if st := srv.Stats(); st.Conns != 1 || st.ProtoErrors != 0 {
		t.Errorf("server saw %d connections, %d protocol errors; want 1, 0", st.Conns, st.ProtoErrors)
	}
}

// TestArtifactFramesWithoutHooks sends every artifact op to a server with
// neither hook set: each is refused with a RemoteError, and the connection
// keeps serving queries — a worker's one connection carries its hot
// traffic too.
func TestArtifactFramesWithoutHooks(t *testing.T) {
	bk := &testBackend{in: 2, out: 1}
	_, srv, addr := newTestServer(t, fleet.Config{}, Config{}, map[string]serve.Backend{"m": bk})
	cn, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	var re *RemoteError
	if _, _, err := cn.StatArtifact("m/shard-0"); !errors.As(err, &re) {
		t.Errorf("stat: %v, want a RemoteError", err)
	}
	if _, _, _, err := cn.FetchArtifact("m/shard-0", 0); !errors.As(err, &re) {
		t.Errorf("fetch: %v, want a RemoteError", err)
	}
	if err := cn.PushArtifact("m", 0, nil); !errors.As(err, &re) {
		t.Errorf("cold push: %v, want a RemoteError", err)
	}
	if err := cn.PushArtifact("m/shard-0", 3, []byte("weights")); !errors.As(err, &re) {
		t.Errorf("push: %v, want a RemoteError", err)
	}
	if _, err := query(cn, "m", []float64{1, 2}, time.Time{}); err != nil {
		t.Fatalf("query after the refused ops: %v", err)
	}
	if st := srv.Stats(); st.Conns != 1 || st.ProtoErrors != 0 {
		t.Errorf("server saw %d connections, %d protocol errors; want 1, 0", st.Conns, st.ProtoErrors)
	}
}
