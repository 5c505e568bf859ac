package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// throughputJSON is the part of an engine result the gate reads.
type throughputJSON struct {
	Throughput *struct {
		Period  string `json:"period"`
		Optimal bool   `json:"optimal"`
		Error   string `json:"error"`
	} `json:"throughput"`
}

type analyzeJSON struct {
	Result *throughputJSON `json:"result"`
}

type sweepLineJSON struct {
	Scenario *int             `json:"scenario"`
	Params   map[string]int64 `json:"params"`
	Result   *throughputJSON  `json:"result"`
	Error    string           `json:"error"`
	Envelope *struct {
		Completed int    `json:"completed"`
		Failed    int    `json:"failed"`
		MinPeriod string `json:"minPeriod"`
		MaxPeriod string `json:"maxPeriod"`
	} `json:"envelope"`
}

// parseReply reduces a 200 response body to what the gate checks.
func parseReply(o op, body []byte, rp *reply) {
	if !o.sweep {
		var a analyzeJSON
		if err := json.Unmarshal(body, &a); err != nil {
			rp.errText = "decoding reply: " + err.Error()
			return
		}
		if a.Result == nil || a.Result.Throughput == nil {
			rp.errText = "reply has no throughput section"
			return
		}
		rp.period, rp.optimal = a.Result.Throughput.Period, a.Result.Throughput.Optimal
		return
	}
	for _, line := range bytes.Split(body, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var l sweepLineJSON
		if err := json.Unmarshal(line, &l); err != nil {
			rp.errText = "decoding sweep line: " + err.Error()
			return
		}
		switch {
		case l.Envelope != nil:
			rp.envelope = true
			rp.completed, rp.fails = l.Envelope.Completed, l.Envelope.Failed
			rp.envMin, rp.envMax = l.Envelope.MinPeriod, l.Envelope.MaxPeriod
		case l.Scenario != nil:
			sc := scenarioObs{value: l.Params["d1"], err: l.Error}
			if l.Result != nil && l.Result.Throughput != nil {
				sc.period, sc.optimal = l.Result.Throughput.Period, l.Result.Throughput.Optimal
				if sc.err == "" {
					sc.err = l.Result.Throughput.Error
				}
			}
			rp.scenarios = append(rp.scenarios, sc)
		case l.Error != "":
			rp.errText = "sweep stream error: " + l.Error
			return
		}
	}
}

// record is one completed op. body holds a 200 reply until the gate
// parses it into rp after the window, so the clients spend no CPU on it
// while kiterd is measured.
type record struct {
	idx     int
	rp      reply
	body    []byte
	start   time.Time
	latency time.Duration
}

// parseAll parses the held reply bodies of recs in place.
func parseAll(p *plan, recs []record) {
	for i := range recs {
		if r := &recs[i]; r.body != nil {
			parseReply(opOf(p, *r), r.body, &r.rp)
			r.body = nil
		}
	}
}

// client is one closed-loop sender with its own connection pool.
type client struct {
	hc   *http.Client
	urls []string
	rr   int
	// scratch holds the last cold body; warm bodies are shared and never
	// written.
	scratch []byte
	resp    bytes.Buffer
}

func newClient(urls []string, offset int) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: 4,
		DisableCompression:  true,
		IdleConnTimeout:     90 * time.Second,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}, urls: urls, rr: offset}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends op o to the next replica in round-robin order and records the
// reply.
func (c *client) do(p *plan, idx int, o op) record {
	body := p.body(c.scratch, o)
	if !o.warm {
		c.scratch = body
	}
	url := c.urls[c.rr%len(c.urls)] + o.path()
	c.rr++
	rec := record{idx: idx, start: time.Now()}
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		rec.latency = time.Since(rec.start)
		rec.rp.errText = err.Error()
		return rec
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	rec.latency = time.Since(rec.start)
	switch {
	case err != nil:
		rec.rp.errText = "reading reply: " + err.Error()
	case resp.StatusCode != http.StatusOK:
		rec.rp.errText = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(c.resp.Bytes()))
	default:
		rec.body = append([]byte(nil), c.resp.Bytes()...)
	}
	return rec
}

// stream hands out stream indices to concurrent clients.
type stream struct {
	p    *plan
	next atomic.Int64
}

// take returns the next op, or false once the stream is exhausted.
func (s *stream) take() (int, op, bool) {
	i := int(s.next.Add(1) - 1)
	if i >= len(s.p.ops) {
		return i, op{}, false
	}
	return i, s.p.ops[i], true
}

// loadRun is one closed-loop measurement.
type loadRun struct {
	// window holds the ops that completed inside [t0, t1]; other holds
	// the warm-up ops and those straddling the end. Both are checked.
	window, other []record
	t0, t1        time.Time
	exhausted     bool
	// probe readings taken at t0 and t1 (kiterd CPU, generator CPU).
	before, after probe
}

// probe is what the coordinator reads at the window edges.
type probe struct {
	serverCPU time.Duration
	clientCPU time.Duration
	scrape    []scrape
}

// sendAll sends ops once each, one at a time, and returns their records.
func sendAll(p *plan, ops []op, urls []string) []record {
	cl := newClient(urls, 0)
	defer cl.close()
	out := make([]record, 0, len(ops))
	for i, o := range ops {
		out = append(out, cl.do(p, -1-i, o))
	}
	return out
}

// runLoad drives the stream with n closed-loop clients for warmup+dur.
// read is called at both window edges while the clients keep running.
// The generator runs on one P meanwhile, so its goroutines never take
// both cores of a two-core machine from kiterd at once; bursts of that
// made throughput and tail latency jitter between runs.
func runLoad(s *stream, urls []string, n int, warmup, dur time.Duration, read func() probe) *loadRun {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := &loadRun{}
	start := time.Now()
	run.t0 = start.Add(warmup)
	run.t1 = run.t0.Add(dur)
	var mu sync.Mutex
	var exhausted atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(urls, c)
			defer cl.close()
			var mine []record
			for time.Now().Before(run.t1) {
				i, o, ok := s.take()
				if !ok {
					exhausted.Store(true)
					break
				}
				mine = append(mine, cl.do(s.p, i, o))
			}
			mu.Lock()
			for _, r := range mine {
				end := r.start.Add(r.latency)
				if !end.Before(run.t0) && !end.After(run.t1) {
					run.window = append(run.window, r)
				} else {
					run.other = append(run.other, r)
				}
			}
			mu.Unlock()
		}(c)
	}
	time.Sleep(time.Until(run.t0))
	run.before = read()
	time.Sleep(time.Until(run.t1))
	run.after = read()
	wg.Wait()
	run.exhausted = exhausted.Load()
	return run
}

// latencyStats returns the p50 and p99 of the window's successful ops.
func latencyStats(recs []record) (p50, p99 time.Duration, n int) {
	var ls []time.Duration
	for _, r := range recs {
		if r.rp.errText == "" {
			ls = append(ls, r.latency)
		}
	}
	if len(ls) == 0 {
		return 0, 0, 0
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	return quantileDur(ls, 0.50), quantileDur(ls, 0.99), len(ls)
}

// quantileDur is the nearest-rank quantile of sorted durations.
func quantileDur(sorted []time.Duration, q float64) time.Duration {
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
