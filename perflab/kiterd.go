package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"kiter/internal/engine"
)

// clockTick is the /proc/<pid>/stat time unit (USER_HZ, 100 on Linux).
const clockTick = 10 * time.Millisecond

// children tracks every kiterd this process started, so any exit path can
// stop them.
var children struct {
	mu    sync.Mutex
	procs map[*exec.Cmd]bool
}

// stopAll kills and reaps every kiterd still running.
func stopAll() {
	children.mu.Lock()
	var cmds []*exec.Cmd
	for c := range children.procs {
		cmds = append(cmds, c)
	}
	children.mu.Unlock()
	for _, c := range cmds {
		stopProc(c)
	}
}

func stopProc(c *exec.Cmd) {
	_ = c.Process.Kill()
	_ = c.Wait()
	children.mu.Lock()
	delete(children.procs, c)
	children.mu.Unlock()
}

// fleet is one booted kiterd topology: a single server or a set of
// replicas that list each other under -peers.
type fleet struct {
	cmds []*exec.Cmd
	urls []string
	logs []string
}

// freePorts reserves n distinct loopback ports. The listeners are closed
// before kiterd binds them; boot retries on the rare collision.
func freePorts(n int) ([]int, error) {
	var ports []int
	var lns []net.Listener
	defer func() {
		for _, l := range lns {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// boot starts n replicas with kiterd's shipped defaults plus extra flags
// and returns once /healthz?ready=1 answers 200 on every one of them. The
// duration is measured from the first exec to the last ready reply.
func boot(bin, logDir string, n int, extra []string) (*fleet, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		f, d, err := bootOnce(bin, logDir, n, extra)
		if err == nil {
			return f, d, nil
		}
		lastErr = err
	}
	return nil, 0, lastErr
}

func bootOnce(bin, logDir string, n int, extra []string) (*fleet, time.Duration, error) {
	ports, err := freePorts(n)
	if err != nil {
		return nil, 0, err
	}
	addrs := make([]string, n)
	for i, p := range ports {
		addrs[i] = "127.0.0.1:" + strconv.Itoa(p)
	}
	f := &fleet{}
	start := time.Now()
	for i, addr := range addrs {
		args := []string{"-addr", addr}
		if n > 1 {
			var peers []string
			for j, a := range addrs {
				if j != i {
					peers = append(peers, a)
				}
			}
			args = append(args, "-self", addr, "-peers", strings.Join(peers, ","))
		}
		args = append(args, extra...)
		cmd := exec.Command(bin, args...)
		logPath := filepath.Join(logDir, fmt.Sprintf("kiterd-%d.log", ports[i]))
		logf, err := os.Create(logPath)
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		f.logs = append(f.logs, logPath)
		cmd.Stdout, cmd.Stderr = logf, logf
		// The kernel kills kiterd should this process die without cleanup.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		err = cmd.Start()
		logf.Close()
		if err != nil {
			f.stop()
			return nil, 0, fmt.Errorf("starting kiterd: %w", err)
		}
		children.mu.Lock()
		if children.procs == nil {
			children.procs = map[*exec.Cmd]bool{}
		}
		children.procs[cmd] = true
		children.mu.Unlock()
		f.cmds = append(f.cmds, cmd)
		f.urls = append(f.urls, "http://"+addr)
	}
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := start.Add(30 * time.Second)
	for _, u := range f.urls {
		for {
			resp, err := hc.Get(u + "/healthz?ready=1")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				for _, c := range f.cmds {
					stopProc(c)
				}
				return nil, 0, fmt.Errorf("kiterd at %s not ready after 30s (logs in %s)", u, logDir)
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
	return f, time.Since(start), nil
}

// stop kills the replicas and removes their logs; a run that fails
// before stopping its fleet keeps the logs for diagnosis.
func (f *fleet) stop() {
	if f == nil {
		return
	}
	for _, c := range f.cmds {
		stopProc(c)
	}
	for _, l := range f.logs {
		_ = os.Remove(l)
	}
	f.cmds, f.logs = nil, nil
}

// cpu sums utime+stime over the replicas.
func (f *fleet) cpu() (time.Duration, error) {
	var total time.Duration
	for _, c := range f.cmds {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name; utime and stime are
		// fields 14 and 15 of the whole line.
		s := string(data)
		fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(fields) < 13 {
			return 0, fmt.Errorf("short /proc stat for pid %d", c.Process.Pid)
		}
		for _, fld := range fields[11:13] {
			v, err := strconv.ParseInt(fld, 10, 64)
			if err != nil {
				return 0, err
			}
			total += time.Duration(v) * clockTick
		}
	}
	return total, nil
}

// rssPeakMB sums VmHWM over the replicas.
func (f *fleet) rssPeakMB() (float64, error) {
	var kb float64
	for _, c := range f.cmds {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.Process.Pid))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				v, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
				if err != nil {
					return 0, err
				}
				kb += v
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("no VmHWM for pid %d", c.Process.Pid)
		}
	}
	return kb / 1024, nil
}

// scrape is one replica's /stats and /metrics at an instant.
type scrape struct {
	stats   engine.Stats
	metrics []sample
}

func (f *fleet) scrapeAll() ([]scrape, error) {
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	out := make([]scrape, len(f.urls))
	for i, u := range f.urls {
		resp, err := hc.Get(u + "/stats")
		if err != nil {
			return nil, err
		}
		err = json.NewDecoder(resp.Body).Decode(&out[i].stats)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("decoding %s/stats: %w", u, err)
		}
		resp, err = hc.Get(u + "/metrics")
		if err != nil {
			return nil, err
		}
		out[i].metrics, err = parseProm(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("parsing %s/metrics: %w", u, err)
		}
	}
	return out, nil
}

// sample is one Prometheus text-exposition line.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm reads the text exposition format kiterd's /metrics serves.
func parseProm(r io.Reader) ([]sample, error) {
	var out []sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s := sample{labels: map[string]string{}}
		rest := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				return nil, fmt.Errorf("malformed line %q", line)
			}
			s.name = line[:i]
			for _, kv := range splitLabels(line[i+1 : j]) {
				k, v, _ := strings.Cut(kv, "=")
				s.labels[k] = strings.Trim(v, `"`)
			}
			rest = strings.TrimSpace(line[j+1:])
		} else {
			name, val, _ := strings.Cut(line, " ")
			s.name, rest = name, val
		}
		v, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
		if err != nil {
			return nil, fmt.Errorf("value in %q: %w", line, err)
		}
		s.value = v
		out = append(out, s)
	}
	return out, sc.Err()
}

// splitLabels splits a label set at commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	inQ := false
	last := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			inQ = !inQ
		case ',':
			if !inQ {
				out = append(out, s[last:i])
				last = i + 1
			}
		}
	}
	if last < len(s) {
		out = append(out, s[last:])
	}
	return out
}

// metricSum sums every sample of a family whose labels match.
func metricSum(ss []sample, name string, match map[string]string) float64 {
	var total float64
	for _, s := range ss {
		if s.name == name && labelsMatch(s.labels, match) {
			total += s.value
		}
	}
	return total
}

func labelsMatch(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// histogram is a cumulative bucket set merged over label combinations.
type histogram map[float64]float64

// histogramOf merges the _bucket series of a family across replicas and
// label sets.
func histogramOf(scrapes []scrape, name string, match map[string]string) histogram {
	h := histogram{}
	for _, sc := range scrapes {
		for _, s := range sc.metrics {
			if s.name != name+"_bucket" || !labelsMatch(s.labels, match) {
				continue
			}
			le, err := strconv.ParseFloat(s.labels["le"], 64)
			if err != nil {
				le = math.Inf(1)
			}
			h[le] += s.value
		}
	}
	return h
}

// sub is the bucket-wise difference after − before.
func (h histogram) sub(before histogram) histogram {
	out := histogram{}
	for le, v := range h {
		out[le] = v - before[le]
	}
	return out
}

// quantile interpolates linearly inside the bucket where the cumulative
// count crosses q of the total; 0 with no observations.
func (h histogram) quantile(q float64) float64 {
	les := make([]float64, 0, len(h))
	for le := range h {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 {
		return 0
	}
	total := h[les[len(les)-1]]
	if total <= 0 {
		return 0
	}
	target := math.Max(q*total, 1)
	prevLE, prevCum := 0.0, 0.0
	for _, le := range les {
		cum := h[le]
		if cum >= target {
			if math.IsInf(le, 1) {
				return prevLE
			}
			n := cum - prevCum
			if n <= 0 {
				return le
			}
			return prevLE + (le-prevLE)*(target-prevCum)/n
		}
		prevLE, prevCum = le, cum
	}
	return prevLE
}

// statsSum folds engine counters over replicas.
type statsSum struct {
	submitted, hits, misses, deduped, evaluations       float64
	claimsGranted, claimsServed, raceStarved, raceTotal float64
	raceKIter, forwarded, failedOver                    float64
}

func sumStats(scrapes []scrape) statsSum {
	var t statsSum
	for _, sc := range scrapes {
		s := sc.stats
		t.submitted += float64(s.Submitted)
		t.hits += float64(s.CacheHits)
		t.misses += float64(s.CacheMisses)
		t.deduped += float64(s.Deduped)
		t.evaluations += float64(s.Evaluations)
		t.claimsGranted += float64(s.ClaimsGranted)
		t.claimsServed += float64(s.ClaimsServed)
		t.raceStarved += float64(s.RaceStarved)
		for m, n := range s.RaceWins {
			t.raceTotal += float64(n)
			if m == string(engine.MethodKIter) {
				t.raceKIter += float64(n)
			}
		}
		for _, p := range s.Cluster {
			t.forwarded += float64(p.Forwarded)
			t.failedOver += float64(p.FailedOver)
		}
	}
	return t
}

func (a statsSum) sub(b statsSum) statsSum {
	return statsSum{
		submitted: a.submitted - b.submitted, hits: a.hits - b.hits, misses: a.misses - b.misses,
		deduped: a.deduped - b.deduped, evaluations: a.evaluations - b.evaluations,
		claimsGranted: a.claimsGranted - b.claimsGranted, claimsServed: a.claimsServed - b.claimsServed,
		raceStarved: a.raceStarved - b.raceStarved, raceTotal: a.raceTotal - b.raceTotal,
		raceKIter: a.raceKIter - b.raceKIter, forwarded: a.forwarded - b.forwarded,
		failedOver: a.failedOver - b.failedOver,
	}
}

// familySum sums a counter family over replicas.
func familySum(scrapes []scrape, name string) float64 {
	var t float64
	for _, sc := range scrapes {
		t += metricSum(sc.metrics, name, nil)
	}
	return t
}
