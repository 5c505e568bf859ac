package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"kiter/internal/csdf"
	"kiter/internal/engine"
	"kiter/internal/gen"
	"kiter/internal/sdf3x"
)

// legacyDecodeAnalyze is the three-pass /analyze decode the server used
// before the one-pass analyzeBody, kept as the differential oracle: a probe
// Unmarshal for the "graph" key, a strict envelope Decoder when it is
// present, then sdf3x.ReadJSON on the graph bytes through a third Decoder.
func legacyDecodeAnalyze(tmpl requestTemplate, body []byte) (*engine.Request, error) {
	type legacyEnvelope struct {
		Graph      json.RawMessage `json:"graph"`
		Analyses   []string        `json:"analyses"`
		Method     string          `json:"method"`
		Capacities *bool           `json:"capacities"`
		NoCache    bool            `json:"noCache"`
	}
	var probe struct {
		Graph json.RawMessage `json:"graph"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	var env legacyEnvelope
	graphJSON := json.RawMessage(body)
	if probe.Graph != nil {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&env); err != nil {
			return nil, fmt.Errorf("decoding request: %w", err)
		}
		graphJSON = env.Graph
	}
	g, err := sdf3x.ReadJSON(bytes.NewReader(graphJSON))
	if err != nil {
		return nil, fmt.Errorf("decoding graph: %w", err)
	}
	req := &engine.Request{
		Graph:           g,
		Analyses:        tmpl.Analyses,
		Method:          tmpl.Method,
		ApplyCapacities: tmpl.Capacities,
		NoCache:         env.NoCache,
	}
	if len(env.Analyses) > 0 {
		req.Analyses = nil
		for _, a := range env.Analyses {
			req.Analyses = append(req.Analyses, engine.AnalysisKind(a))
		}
	}
	if env.Method != "" {
		req.Method = engine.Method(env.Method)
	}
	if env.Capacities != nil {
		req.ApplyCapacities = *env.Capacities
	}
	return req, nil
}

// checkDecodeAgrees runs both decoders on body and fails unless they agree
// on accept/reject and, for accepted bodies, on the graph and every knob.
func checkDecodeAgrees(t *testing.T, s *server, body []byte) {
	t.Helper()
	want, wantErr := legacyDecodeAnalyze(s.tmpl, body)
	got, err := s.decodeAnalyze(body)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("decodeAnalyze error = %v, legacy %v\nbody: %s", err, wantErr, body)
	}
	if err != nil {
		return
	}
	if got.Graph.Fingerprint() != want.Graph.Fingerprint() || got.Graph.Name != want.Graph.Name {
		t.Fatalf("graph %q %s, legacy %q %s\nbody: %s", got.Graph.Name, got.Graph.FingerprintHex(),
			want.Graph.Name, want.Graph.FingerprintHex(), body)
	}
	if !reflect.DeepEqual(got.Analyses, want.Analyses) || got.Method != want.Method ||
		got.ApplyCapacities != want.ApplyCapacities || got.NoCache != want.NoCache {
		t.Fatalf("knobs %v %q %v %v, legacy %v %q %v %v\nbody: %s",
			got.Analyses, got.Method, got.ApplyCapacities, got.NoCache,
			want.Analyses, want.Method, want.ApplyCapacities, want.NoCache, body)
	}
}

// decodeSeeds returns the differential corpus: suite fixtures bare and
// wrapped, plus every envelope corner the one-pass decode must keep.
func decodeSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	graphs := []*csdf.Graph{gen.Figure2(), gen.SampleRateConverter(), gen.CyclicCSDF(), gen.KIterChain(4)}
	graphs = append(graphs, gen.ActualDSP().Graphs...)
	for _, g := range graphs {
		var buf bytes.Buffer
		if err := sdf3x.WriteJSON(&buf, g); err != nil {
			t.Fatal(err)
		}
		bare := bytes.TrimSpace(buf.Bytes())
		seeds = append(seeds, bare,
			[]byte(`{"graph": `+string(bare)+`, "method": "kiter"}`),
			[]byte(`{"analyses":["throughput","schedule"],"graph":`+string(bare)+`,"capacities":true,"noCache":true}`))
	}
	fig := func() string {
		var buf bytes.Buffer
		if err := sdf3x.WriteJSON(&buf, gen.Figure2()); err != nil {
			t.Fatal(err)
		}
		return strings.TrimSpace(buf.String())
	}()
	bareFields := strings.TrimSuffix(strings.TrimPrefix(fig, "{"), "}")
	for _, s := range []string{
		`{"graph": null}`,
		`{"graph": null, "method": "kiter"}`,
		`{"graph": null, ` + bareFields + `}`,
		`{"graph": ` + fig + `, "tasks": []}`,
		`{` + bareFields + `, "method": "kiter", "analyses": 5, "capacities": "yes"}`,
		`{"graph": ` + fig + `, "metod": "kiter"}`,
		`{"graph": ` + fig + `, "analyses": 5}`,
		`{"graph": ` + fig + `, "analyses": [1, "throughput"]}`,
		`{"graph": ` + fig + `, "capacities": null, "noCache": false}`,
		`{"graph": ` + fig + `} trailing`,
		fig + ` {"more": 1}`,
		`{"Graph": ` + fig + `, "METHOD": "kiter", "NoCache": true}`,
		`{"graph": ` + fig + `, "method": "kiter"}`,
		`{"graph": ` + fig + `, "analyſes": ["throughput"]}`,
		`{"gr\u0061ph": ` + fig + `, "m\u0065thod": "kiter", "\u004eoCache": true}`,
		`{"graph": ` + fig + `, "\u006detod": "kiter"}`,
		`{"graph": ` + fig + `, "analy\u017fes": ["throughput"]}`,
		`{"\u0067raph": null, "graph": ` + fig + `}`,
		strings.Replace(fig, `"name": "figure2"`, `"n\u0061me": "escaped"`, 1),
		`{"graph": ` + fig + `, "graph": {"name": "empty"}}`,
		`{"graph": {"name": "empty"}, "GRAPH": ` + fig + `}`,
		`{"graph": 5, "graph": ` + fig + `}`,
		`{"graph": ` + fig + `, "graph": null}`,
		`{"graph": null, "graph": ` + fig + `}`,
		`{"graph": "` + strings.ReplaceAll(fig, `"`, `\"`) + `"}`,
		`{"graph": [` + fig + `]}`,
		`{"method": "kiter", "graph": ` + fig + `, "method": 7}`,
		`{"method": 7, "graph": ` + fig + `, "method": "kiter"}`,
		`{"analyses": 5, "analyses": ["throughput"], "graph": ` + fig + `}`,
		`{"name": 7, ` + bareFields + `}`,
		`{` + bareFields + `, "name": 7, "method": 5}`,
		`[` + fig + `]`,
		`null`,
		`"graph"`,
		`{}`,
		`{"graph": {}}`,
		`not json`,
		``,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

func TestDecodeAnalyzeMatchesLegacy(t *testing.T) {
	s := &server{tmpl: testTemplate()}
	for _, body := range decodeSeeds(t) {
		checkDecodeAgrees(t, s, body)
	}
	// The typo'd knob is named in the error, as the strict decoder named it.
	_, err := s.decodeAnalyze([]byte(`{"graph": {}, "metod": "kiter"}`))
	if err == nil || !strings.Contains(err.Error(), `unknown field "metod"`) {
		t.Fatalf("typo'd knob error = %v", err)
	}
}

// FuzzDecodeAnalyze holds the one-pass /analyze decode to the legacy
// three-pass decode: for any body both accept or both reject, and an
// accepted body yields the same graph fingerprint and the same knobs.
func FuzzDecodeAnalyze(f *testing.F) {
	for _, body := range decodeSeeds(f) {
		f.Add(body)
	}
	s := &server{tmpl: testTemplate()}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeAgrees(t, s, body)
	})
}

// BenchmarkDecodeAnalyze decodes cold-solve-shaped /analyze envelopes
// (indented suite graphs pinning a method), one pass against the legacy
// three passes.
func BenchmarkDecodeAnalyze(b *testing.B) {
	graphs := append(gen.ActualDSP().Graphs, gen.KIterChain(4), gen.KIterChain(8), gen.KIterChain(16))
	graphs = append(graphs, gen.MimicDSP(8, 1).Graphs...)
	graphs = append(graphs, gen.LgHSDF(8, 1).Graphs...)
	var bodies [][]byte
	size := 0
	for _, g := range graphs {
		var buf bytes.Buffer
		if err := sdf3x.WriteJSON(&buf, g); err != nil {
			b.Fatal(err)
		}
		body := []byte(`{"graph":` + strings.TrimSpace(buf.String()) + `,"method":"kiter"}`)
		bodies = append(bodies, body)
		size += len(body)
	}
	s := &server{tmpl: testTemplate()}
	for _, c := range []struct {
		name   string
		decode func([]byte) (*engine.Request, error)
	}{
		{"onePass", s.decodeAnalyze},
		{"legacy", func(body []byte) (*engine.Request, error) { return legacyDecodeAnalyze(s.tmpl, body) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(size / len(bodies)))
			for i := 0; i < b.N; i++ {
				if _, err := c.decode(bodies[i%len(bodies)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
