package main

import (
	"repro/internal/netserve"
)

// netserveRung enters the request stream one hop short of the router:
// the same two resilient client connections, dialled straight to worker
// 0's netserve server.
func netserveRung(s *routedStack) (call func(c int) rowCall, closeAll func(), err error) {
	var clients []*netserve.ResilientClient
	closeAll = func() {
		for _, cl := range clients {
			cl.Close()
		}
	}
	for c := 0; c < routedConns; c++ {
		cl, err := netserve.DialResilient(s.addrs[0], netserve.ResilientConfig{Conns: 1})
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		clients = append(clients, cl)
	}
	return s.wireCall(clients), closeAll, nil
}

// netserveLayers reports the wire work of a traced routed workload on
// the client↔first-hop connections and at the workers: rows per Write
// call on each side (flush coalescing — routed_closed/rows_per_s and
// routed_*/cpu_us_per_row), bytes per row both ways, responses per
// server flush, and the client's retries and expiries (slo_ok_share).
func netserveLayers(s *routedStack, res *result, m metrics) {
	var responses, flushes, retries int64
	for _, srv := range s.servers {
		st := srv.Stats()
		responses += st.Responses
		flushes += st.Flushes
	}
	for _, cl := range s.clients {
		retries += cl.Stats().Retries
	}
	clientWrites, clientBytes := s.hopClient.writes.Load(), s.hopClient.bytes.Load()
	serverWrites, replyBytes := s.hopWorkers.writes.Load(), s.hopRouterIn.bytes.Load()
	sent := float64(res.attempted - res.fails[failOverflow])
	m.set("netserve.rows_per_write_server", ratio(float64(responses), float64(serverWrites)))
	m.set("netserve.rows_per_write_client", ratio(sent, float64(clientWrites)))
	m.set("netserve.bytes_per_row", ratio(float64(clientBytes+replyBytes), sent))
	m.set("netserve.responses_per_flush", ratio(float64(responses), float64(flushes)))
	m.set("netserve.retry_share", ratio(float64(retries), sent))
	m.set("netserve.expired_share", ratio(float64(res.fails[failExpired]), sent))
}
