package cluster

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDefaultClientTransportSizedToWorkers pins the regression where the
// default forwarding client was a bare http.Client inheriting
// DefaultTransport's MaxIdleConnsPerHost of 2: with a W-worker engine
// forwarding concurrently to one owner, every request past 2 in flight
// paid a fresh dial and left a TIME_WAIT socket behind.
func TestDefaultClientTransportSizedToWorkers(t *testing.T) {
	cfg := Config{Self: "a:1", Peers: []string{"b:1", "c:1"}, Workers: 32}.withDefaults()
	tr, ok := cfg.Client.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("default client transport is %T, want *http.Transport", cfg.Client.Transport)
	}
	if tr.MaxIdleConnsPerHost < 32 {
		t.Fatalf("MaxIdleConnsPerHost = %d, want >= Workers (32)", tr.MaxIdleConnsPerHost)
	}
	if tr.MaxIdleConns < tr.MaxIdleConnsPerHost*2 {
		t.Fatalf("MaxIdleConns = %d cannot hold %d idle conns for 2 peers",
			tr.MaxIdleConns, tr.MaxIdleConnsPerHost*2)
	}
	if tr.IdleConnTimeout <= 0 || tr.TLSHandshakeTimeout <= 0 {
		t.Fatalf("transport missing timeouts: idle=%v tls=%v", tr.IdleConnTimeout, tr.TLSHandshakeTimeout)
	}

	// An explicit client (tests, custom TLS) still wins.
	custom := &http.Client{}
	if got := (Config{Self: "a:1", Client: custom}).withDefaults().Client; got != custom {
		t.Fatal("explicit Client overridden by default transport")
	}
}

// TestForwardConnectionReuse drives the cluster's default client with
// rounds of concurrent requests against one host — the forwarding pattern
// of a sweep fanning out to its owner replica — and asserts the server
// sees at most one TCP connection per concurrent slot across all rounds.
// Under the old bare client only 2 idle connections survived between
// rounds, so every later round dialed ~(concurrency-2) fresh connections.
//
// Two client-side races used to let a ninth connection in, and the test
// now closes both:
//   - Within a round, a request that finds no idle connection dials, and
//     if another request's connection turns idle first it takes that one;
//     its dial still completes and parks a spare connection. The handler
//     is a barrier: no reply leaves until the whole round has arrived, so
//     no connection turns idle while a round is still dialing.
//   - Reading a body to EOF does not put its connection back in the idle
//     pool; the transport's read loop does that a moment later on its own
//     goroutine. Each round waits for every connection's PutIdleConn
//     before the next begins, which also reports a pool that refuses one.
func TestForwardConnectionReuse(t *testing.T) {
	const concurrency, rounds = 8, 5
	var conns atomic.Int64
	var mu sync.Mutex
	arrived, gate := 0, make(chan struct{})
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		mu.Lock()
		g := gate
		if arrived++; arrived == concurrency {
			close(gate)
			arrived, gate = 0, make(chan struct{})
		}
		mu.Unlock()
		select {
		case <-g:
		case <-time.After(10 * time.Second): // a short round fails on the count below
		}
		fmt.Fprint(w, "{}")
	}))
	ts.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	cfg := Config{Self: "self:1", Workers: concurrency}.withDefaults()
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		returned := make(chan error, concurrency)
		ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
			PutIdleConn: func(err error) { returned <- err },
		})
		for i := 0; i < concurrency; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL, strings.NewReader(`{}`))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("Content-Type", "application/json")
				resp, err := cfg.Client.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}()
		}
		wg.Wait()
		for i := 0; i < concurrency; i++ {
			select {
			case err := <-returned:
				if err != nil {
					t.Fatalf("round %d: connection not kept idle: %v", round, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("round %d: only %d of %d connections returned to the idle pool", round, i, concurrency)
			}
		}
	}
	if got := conns.Load(); got > concurrency {
		t.Fatalf("server saw %d connections for %d rounds × %d concurrent requests; "+
			"want <= %d (connection churn)", got, rounds, concurrency, concurrency)
	}
}
