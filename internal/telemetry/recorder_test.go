package telemetry

import (
	"fmt"
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := NewSpanContext()
	if !sc.Valid() {
		t.Fatalf("NewSpanContext invalid: %+v", sc)
	}
	h := sc.Traceparent()
	if !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("traceparent %q not in 00-…-01 shape", h)
	}
	got, ok := ParseTraceparent(h)
	if !ok || got != sc {
		t.Fatalf("round trip: %q -> %+v (ok=%v), want %+v", h, got, ok, sc)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	for _, h := range []string{
		"",
		"garbage",
		"00-aaaa-bbbb-01", // wrong lengths
		"00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("a", 16) + "-01", // zero trace
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("0", 16) + "-01", // zero span
		"00-" + strings.Repeat("g", 32) + "-" + strings.Repeat("a", 16) + "-01", // non-hex
	} {
		if _, ok := ParseTraceparent(h); ok {
			t.Fatalf("ParseTraceparent(%q) accepted", h)
		}
	}
	// Future versions must stay parseable (the spec requires it).
	h := "cc-" + strings.Repeat("a", 32) + "-" + strings.Repeat("b", 16) + "-01-extra"
	if _, ok := ParseTraceparent(h); !ok {
		t.Fatalf("ParseTraceparent(%q) rejected future version", h)
	}
}

// TestRemoteTraceJoins: a remote root opened from a parsed traceparent
// shares the trace ID and parents under the caller's span.
func TestRemoteTraceJoins(t *testing.T) {
	local := NewTrace("client")
	sc, ok := ParseTraceparent(local.Context().Traceparent())
	if !ok {
		t.Fatal("local span produced unparseable traceparent")
	}
	remote := NewRemoteTrace("server", sc)
	remote.End()
	local.End()
	rn, ln := remote.Snapshot(), local.Snapshot()
	if rn.TraceID != ln.TraceID {
		t.Fatalf("trace IDs diverge: %s vs %s", rn.TraceID, ln.TraceID)
	}
	if rn.ParentID != ln.SpanID {
		t.Fatalf("remote parent %s, want caller span %s", rn.ParentID, ln.SpanID)
	}
	if rn.SpanID == ln.SpanID {
		t.Fatal("remote root reused the caller's span ID")
	}
}

func rec(id string, durMS float64, errored bool) RecordedTrace {
	return RecordedTrace{
		TraceID: id,
		Error:   errored,
		DurMS:   durMS,
		Root:    &SpanNode{Name: "analyze", SpanID: "s" + id},
	}
}

// TestRecorderTailBias: after heavy churn, the slowest and the errored
// traces are still retrievable while ordinary fast traffic has rotated out.
func TestRecorderTailBias(t *testing.T) {
	r := NewRecorder(16)
	r.Add(rec("slowest", 5000, false))
	r.Add(rec("bad", 1, true))
	// Durations creep upward so the evict-fastest policy has strictly
	// slower candidates: fast-0 cannot linger in the slow set on a tie.
	for i := 0; i < 500; i++ {
		r.Add(rec(fmt.Sprintf("fast-%d", i), 1+float64(i)/10, false))
	}
	if got := r.Get("slowest"); len(got) != 1 {
		t.Fatalf("slowest trace evicted: %v", got)
	}
	if got := r.Get("bad"); len(got) != 1 {
		t.Fatalf("errored trace evicted: %v", got)
	}
	if got := r.Get("fast-0"); len(got) != 0 {
		t.Fatalf("ancient fast trace still retained: %v", got)
	}
	if r.Added() != 502 {
		t.Fatalf("Added = %d, want 502", r.Added())
	}
	if list := r.List(0); len(list) == 0 || len(list) > 16 {
		t.Fatalf("List returned %d records for a 16-cap recorder", len(list))
	}
}

// TestStitch: remote subtrees graft under their parent spans across
// multiple hops, and orphans are marked detached.
func TestStitch(t *testing.T) {
	records := []RecordedTrace{
		{TraceID: "t", Process: "a", StartUnixNano: 1, Root: &SpanNode{
			Name: "analyze", SpanID: "root",
			Children: []*SpanNode{{Name: "cluster.forward", SpanID: "fwd"}},
		}},
		{TraceID: "t", Process: "b", StartUnixNano: 2, Root: &SpanNode{
			Name: "cluster.evaluate", SpanID: "eval", ParentID: "fwd",
			Children: []*SpanNode{{Name: "cache.fleet.get", SpanID: "cget"}},
		}},
		// Third hop: b's cache read served by c, parented two levels deep.
		{TraceID: "t", Process: "c", StartUnixNano: 3, Root: &SpanNode{
			Name: "cluster.cache.get", SpanID: "srv", ParentID: "cget",
		}},
		// Orphan: its parent's record was never captured.
		{TraceID: "t", Process: "d", StartUnixNano: 4, Root: &SpanNode{
			Name: "cluster.cache.put", SpanID: "put", ParentID: "missing",
		}},
	}
	roots, detached := Stitch(records)
	if detached != 1 {
		t.Fatalf("detached = %d, want 1", detached)
	}
	if len(roots) != 2 {
		t.Fatalf("roots = %d, want 2 (one stitched tree + one orphan)", len(roots))
	}
	tree := roots[0]
	if tree.SpanID != "root" {
		t.Fatalf("first root is %s, want the analyze root", tree.SpanID)
	}
	fwd := tree.Children[0]
	if len(fwd.Children) != 1 || fwd.Children[0].SpanID != "eval" {
		t.Fatalf("evaluate subtree not grafted under forward: %+v", fwd)
	}
	cget := fwd.Children[0].Children[0]
	if len(cget.Children) != 1 || cget.Children[0].SpanID != "srv" {
		t.Fatalf("second hop not grafted: %+v", cget)
	}
	if p, _ := fwd.Children[0].Attrs["process"].(string); p != "b" {
		t.Fatalf("grafted subtree lost its process stamp: %v", fwd.Children[0].Attrs)
	}
	orphan := roots[1]
	if orphan.SpanID != "put" || orphan.Attrs["detached"] != true {
		t.Fatalf("orphan not marked detached: %+v", orphan)
	}
}

// TestStitchCycleGuard: malformed records that parent each other must not
// hang or panic the stitcher.
func TestStitchCycleGuard(t *testing.T) {
	records := []RecordedTrace{
		{TraceID: "t", Root: &SpanNode{Name: "x", SpanID: "x", ParentID: "y"}},
		{TraceID: "t", Root: &SpanNode{Name: "y", SpanID: "y", ParentID: "x"}},
	}
	roots, _ := Stitch(records)
	if len(roots) == 0 {
		t.Fatal("cycle swallowed every root")
	}
}

func TestExemplarTracker(t *testing.T) {
	tr := NewExemplarTracker(0)
	tr.Observe("/analyze", "t1", 0.5)
	tr.Observe("/analyze", "t2", 0.1) // faster: must not replace
	tr.Observe("/sweep", "t3", 1.0)
	reg := NewRegistry()
	tr.Register(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	expo := sb.String()
	if !strings.Contains(expo, `kiter_http_slowest_trace_seconds{endpoint="/analyze",traceId="t1"} 0.5`) {
		t.Fatalf("slowest /analyze exemplar missing or replaced:\n%s", expo)
	}
	if !strings.Contains(expo, `traceId="t3"`) {
		t.Fatalf("/sweep exemplar missing:\n%s", expo)
	}
	// Nil receivers are inert.
	var nilT *ExemplarTracker
	nilT.Observe("/analyze", "t9", 9)
	nilT.Register(reg)
}

func TestRuntimeMetricsRegister(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntimeMetrics(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	expo := sb.String()
	for _, family := range []string{
		"kiter_go_goroutines",
		"kiter_go_gc_pause_seconds",
		"kiter_go_sched_latency_seconds",
		"kiter_go_memory_total_bytes",
	} {
		if !strings.Contains(expo, family) {
			t.Fatalf("runtime exposition missing %s:\n%.2000s", family, expo)
		}
	}
}
