// Command perflab is kiter's performance lab. It boots kiterd with its
// shipped defaults, drives one named workload of paper-suite graphs from a
// closed loop of two clients, checks every result against a reference
// period computed with a direct kperiodic.KIter call, and prints one JSON
// line of metrics:
//
//	bash perflab/run.sh --workload solve_cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
// --trace 1 it replays the workload in-process with a span around every
// call into a layer, scrapes kiterd's /stats and /metrics around an HTTP
// run, runs the variant measurements and reports the per-layer metrics.
// run.sh builds kiterd and this command from the checkout first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(1)
	}()
	code := run(os.Args[1:], os.Stdout)
	stopAll()
	os.Exit(code)
}

// config is the parsed command line.
type config struct {
	spec    spec
	seed    int64
	seconds time.Duration
	trace   bool
	kiterd  string
	out     string
}

const (
	// clients is the closed loop's size: one per core of the two-core
	// machine the benchmark was sized on.
	clients = 2
	// warmup is the closed-loop time before the window opens.
	warmup = time.Second
	// boots is how many times a run boots kiterd; setup_s is the median.
	boots = 11
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one run reports.
type outcome struct {
	attempted, failed, wrong int
	metrics                  map[string]metric
	// notes are extra report lines printed before the JSON result.
	notes []string
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perflab", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: analyze_warm, solve_cold or fleet_mixed")
	seed := fs.Int64("seed", 1, "workload seed: the request stream derives from it")
	secs := fs.Int("seconds", 10, "measured window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer run")
	kiterd := fs.String("kiterd", ".bench_build/perflab/kiterd", "kiterd binary built from this checkout")
	out := fs.String("out", ".bench_build/perflab", "directory for kiterd logs and span files")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	s, ok := workloads[*name]
	if !ok {
		return config{}, fmt.Errorf("unknown --workload %q (want analyze_warm, solve_cold or fleet_mixed)", *name)
	}
	if *secs < 1 || *trace < 0 || *trace > 1 {
		return config{}, fmt.Errorf("want --seconds ≥ 1 and --trace 0 or 1")
	}
	return config{
		spec: s, seed: *seed, seconds: time.Duration(*secs) * time.Second, trace: *trace == 1,
		kiterd: *kiterd, out: *out,
	}, nil
}

// maxRate bounds the op rate any kiterd could sustain; streams are sized
// by it so a run never exhausts its pre-generated ops.
const maxRate = 25000

func run(args []string, stdout io.Writer) int {
	cfg, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perflab:", err)
		return 2
	}
	if _, err := os.Stat(cfg.kiterd); err != nil {
		fmt.Fprintln(os.Stderr, "perflab: kiterd binary:", err)
		return 2
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perflab:", err)
		return 2
	}
	httpSeconds := warmup + cfg.seconds
	if cfg.trace {
		httpSeconds *= 3
	}
	pl, err := newPlan(cfg.spec, cfg.seed, int(maxRate*httpSeconds.Seconds()))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perflab:", err)
		return 1
	}
	rf := newRefs(pl)
	// References for every warm body and for the stream prefix the run is
	// expected to consume are computed before any timing starts.
	pre := int(cfg.spec.refRate * (warmup + cfg.seconds).Seconds())
	if err := rf.fill(append(append([]op(nil), pl.warm...), pl.ops[:min(pre, len(pl.ops))]...)); err != nil {
		fmt.Fprintln(os.Stderr, "perflab:", err)
		return 1
	}
	var out *outcome
	if cfg.trace {
		out, err = tracedRun(cfg, pl, rf)
	} else {
		out, err = timedRun(cfg, pl, rf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perflab:", err)
		return 1
	}
	for _, n := range out.notes {
		fmt.Fprintln(stdout, "perflab:", n)
	}
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "perflab: %s %s = %.6g %s\n", cfg.spec.name, n, out.metrics[n].Value, out.metrics[n].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.wrong == 0, out.attempted, out.failed, out.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perflab:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if out.wrong > 0 {
		return 1
	}
	return 0
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// bootMedian boots the workload's topology boots times and keeps the
// last one running; setup is the median time to readiness.
func bootMedian(cfg config, extra []string) (*fleet, time.Duration, error) {
	var ds []time.Duration
	for b := 0; b < boots; b++ {
		f, d, err := boot(cfg.kiterd, cfg.out, cfg.spec.replicas, extra)
		if err != nil {
			return nil, 0, err
		}
		ds = append(ds, d)
		if b < boots-1 {
			f.stop()
			continue
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return f, ds[len(ds)/2], nil
	}
	panic("unreachable")
}

// warmUp sends every warm body through every replica once, so each later
// warm op is a local cache hit wherever it lands. One client at a time
// keeps the race kiterd runs for warm bodies unstarved.
func warmUp(pl *plan, f *fleet) []record {
	var recs []record
	for _, u := range f.urls {
		recs = append(recs, sendAll(pl, pl.warm, []string{u})...)
	}
	return recs
}

// gate parses and checks records in place against the references, marking
// wrong results as failed. It returns the number of failed ops
// (transport, HTTP or wrong result) and of wrong results, and reports the
// first few problems.
func gate(pl *plan, rf *refs, recs []record, out *outcome) (failed, wrong int, err error) {
	parseAll(pl, recs)
	var ops []op
	for _, r := range recs {
		ops = append(ops, opOf(pl, r))
	}
	if err := rf.fill(ops); err != nil {
		return 0, 0, err
	}
	shown := 0
	for i, r := range recs {
		if r.rp.errText != "" {
			failed++
			if shown < 5 {
				out.note("op %d failed: %s", r.idx, r.rp.errText)
				shown++
			}
			continue
		}
		why, err := rf.check(ops[i], &r.rp)
		if err != nil {
			return 0, 0, err
		}
		if why != "" {
			// A wrong result counts as a failed op from here on.
			recs[i].rp.errText = "wrong result: " + why
			failed++
			wrong++
			if shown < 5 {
				out.note("op %d %s", r.idx, recs[i].rp.errText)
				shown++
			}
		}
	}
	return failed, wrong, nil
}

// opOf recovers the op behind a record: stream ops carry their index,
// warm-up ops a negative one into plan.warm.
func opOf(pl *plan, r record) op {
	if r.idx >= 0 {
		return pl.ops[r.idx]
	}
	return pl.warm[-1-r.idx]
}

// timedRun measures the end-to-end metrics with tracing off.
func timedRun(cfg config, pl *plan, rf *refs) (*outcome, error) {
	out := &outcome{}
	f, setup, err := bootMedian(cfg, nil)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	warm := warmUp(pl, f)
	s := &stream{p: pl}
	var readErr error
	run := runLoad(s, f.urls, clients, warmup, cfg.seconds, func() probe {
		c, err := f.cpu()
		if err != nil {
			readErr = err
		}
		return probe{serverCPU: c, clientCPU: selfCPU()}
	})
	if readErr != nil {
		return nil, readErr
	}
	if run.exhausted {
		return nil, fmt.Errorf("request stream exhausted: raise maxRate")
	}
	rss, err := f.rssPeakMB()
	if err != nil {
		return nil, err
	}
	f.stop()
	if err := summarize(cfg, pl, rf, run, warm, out); err != nil {
		return nil, err
	}
	out.set("setup_s", setup.Seconds(), "s")
	out.set("rss_peak_mb", rss, "MB")
	return out, nil
}

// summarize gates every record of a load run and sets the throughput,
// latency, CPU and failure metrics of its window.
func summarize(cfg config, pl *plan, rf *refs, run *loadRun, warm []record, out *outcome) error {
	failed, wrong, err := gate(pl, rf, run.window, out)
	if err != nil {
		return err
	}
	_, wrongOther, err := gate(pl, rf, append(append([]record(nil), warm...), run.other...), out)
	if err != nil {
		return err
	}
	out.attempted, out.failed, out.wrong = len(run.window), failed, wrong+wrongOther
	if out.attempted == 0 {
		return fmt.Errorf("no op completed inside the window")
	}
	secs := run.t1.Sub(run.t0).Seconds()
	ok, results := 0, 0
	for _, r := range run.window {
		if r.rp.errText == "" {
			ok++
			results += opOf(pl, r).results()
		}
	}
	p50, p99, n := latencyStats(run.window)
	out.set("ops_per_s", float64(ok)/secs, "1/s")
	out.set("results_per_s", float64(results)/secs, "1/s")
	out.set("p50_ms", ms(p50), "ms")
	out.set("p99_ms", ms(p99), "ms")
	out.set("cpu_ms_per_op", ms(run.after.serverCPU-run.before.serverCPU)/float64(max(ok, 1)), "ms")
	out.set("success_ratio", 1-float64(failed)/float64(out.attempted), "ratio")
	out.note("%s latency_samples = %d count (p50_ms and p99_ms are over these)", cfg.spec.name, n)
	out.note("%s fail_ratio = %.6g ratio (transport errors + non-200 + sheds + wrong results over %d attempted)",
		cfg.spec.name, float64(failed)/float64(out.attempted), out.attempted)
	out.note("%s wrong_results = %d count (all ops, warm-up included)", cfg.spec.name, out.wrong)
	out.note("%s bench.client_cpu_ms_per_op = %.6g ms", cfg.spec.name,
		ms(run.after.clientCPU-run.before.clientCPU)/float64(max(ok, 1)))
	slow := append([]record(nil), run.window...)
	sort.Slice(slow, func(i, j int) bool { return slow[i].latency > slow[j].latency })
	for _, r := range slow[:min(3, len(slow))] {
		o := opOf(pl, r)
		out.note("%s slow op %d: %s %s %.3f ms", cfg.spec.name, r.idx, o.path(), pl.tmpls[o.tmpl].graph.Name, ms(r.latency))
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
