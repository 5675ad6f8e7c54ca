package router

import (
	"sync/atomic"
	"time"

	"repro/internal/netserve"
)

// worker is one backend process, reached over one netserve connection:
// the frontend readers splice hot frames onto it, and the movers and the
// mirror loop run their artifact stat/fetch/push calls on it; its repair
// is the worker's own loop (keep). The connection is intentionally NOT
// resilient — when it dies, its in-flight splices are answered Retry and
// the router rehashes, never redialling a hot request transparently:
// callers hold the never-silently-dropped contract against the router,
// and a placement may no longer belong here after the outage.
type worker struct {
	rt   *Router
	addr string

	alive atomic.Bool
	// conn is the newest connection; once dialled it is never cleared, so
	// a dead one answers Splice false until keep redials.
	conn atomic.Pointer[netserve.Conn]

	closed atomic.Bool
}

func (wk *worker) live() bool { return wk.alive.Load() }

// connect dials the worker's connection and marks the worker live.
// Artifact frames need the raised MaxFrame.
func (wk *worker) connect() (*netserve.Conn, error) {
	cn, err := netserve.Dial(wk.addr, netserve.ClientConfig{MaxFrame: netserve.DefaultMaxArtifactFrame, Dialer: wk.rt.cfg.Dialer})
	if err != nil {
		return nil, err
	}
	wk.conn.Store(cn)
	wk.alive.Store(true)
	if wk.closed.Load() {
		cn.Close() // close ran during the dial and may have missed it
	}
	return cn, nil
}

// keep is the worker's background loop, started with the connection New
// dialled (nil if the worker was down). While the connection lives it
// waits. When it dies — every splice on it answered Retry by then — the
// worker leaves the ring and its placements rehash; then it redials
// under backoff and, once back, rejoins the ring. It ends when the
// router closes.
func (wk *worker) keep(cn *netserve.Conn) {
	rt := wk.rt
	defer rt.bg.Done()
	for {
		if cn != nil {
			err := cn.Wait()
			wk.alive.Store(false)
			if wk.closed.Load() {
				return
			}
			rt.logf("router: worker %s connection lost: %v", wk.addr, err)
			rt.pmu.Lock()
			rt.rebalanceLocked()
			rt.pmu.Unlock()
		}
		for backoff := reconnectBackoff; ; backoff = min(2*backoff, reconnectBackoffMax) {
			select {
			case <-rt.quit:
				return
			case <-time.After(backoff):
			}
			var err error
			if cn, err = wk.connect(); err == nil {
				break
			}
		}
		rt.logf("router: worker %s reconnected", wk.addr)
		rt.pmu.Lock()
		rt.rebalanceLocked()
		rt.pmu.Unlock()
	}
}

// close shuts the worker down for good (router Close); its in-flight
// splices are answered Retry.
func (wk *worker) close() {
	wk.closed.Store(true)
	wk.alive.Store(false)
	if cn := wk.conn.Load(); cn != nil {
		cn.Close()
	}
}
