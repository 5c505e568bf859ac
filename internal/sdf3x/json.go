// Package sdf3x reads and writes CSDF graphs in two interchange formats: a
// compact JSON format native to this repository, and an SDF3-flavoured XML
// dialect compatible in shape with the benchmark format of Stuijk et al.'s
// SDF3 tool [15], which the paper's experiments are distributed in.
package sdf3x

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"kiter/internal/csdf"
)

// JSONGraph is the on-disk JSON shape. Callers that embed a graph in a
// larger JSON document (kiterd's /analyze envelope, a sweep's base) decode
// it straight into a JSONGraph and call Build, so the bytes are scanned by
// one decoder only.
type JSONGraph struct {
	Name    string       `json:"name"`
	Tasks   []JSONTask   `json:"tasks"`
	Buffers []JSONBuffer `json:"buffers"`
}

// JSONTask is one task of a JSONGraph.
type JSONTask struct {
	Name      string  `json:"name"`
	Durations []int64 `json:"durations"`
}

// JSONBuffer is one buffer of a JSONGraph; Src and Dst are task names.
type JSONBuffer struct {
	Name     string  `json:"name,omitempty"`
	Src      string  `json:"src"`
	Dst      string  `json:"dst"`
	In       []int64 `json:"in"`
	Out      []int64 `json:"out"`
	Initial  int64   `json:"initial"`
	Capacity int64   `json:"capacity,omitempty"`
}

// WriteJSON marshals g. Task references use names, so every task is
// emitted under a unique non-empty name: unnamed and duplicate-named tasks
// are emitted as "tN" (N the task ID), suffixed when that is taken too.
func WriteJSON(w io.Writer, g *csdf.Graph) error {
	names := taskNames(g)
	jg := JSONGraph{Name: g.Name}
	for _, t := range g.Tasks() {
		jg.Tasks = append(jg.Tasks, JSONTask{Name: names[t.ID], Durations: t.Durations})
	}
	for _, b := range g.Buffers() {
		jg.Buffers = append(jg.Buffers, JSONBuffer{
			Name: b.Name, Src: names[b.Src], Dst: names[b.Dst],
			In: b.In, Out: b.Out, Initial: b.Initial, Capacity: b.Capacity,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jg)
}

// ReadJSON decodes the first JSON value of r as a graph and validates it.
func ReadJSON(r io.Reader) (*csdf.Graph, error) {
	var jg JSONGraph
	if err := json.NewDecoder(r).Decode(&jg); err != nil {
		return nil, fmt.Errorf("sdf3x: decoding JSON: %w", err)
	}
	return jg.Build()
}

// DecodeJSON is ReadJSON for a graph already held in memory as exactly one
// JSON value (trailing data is an error), decoded without a Decoder's
// buffered copy.
func DecodeJSON(data []byte) (*csdf.Graph, error) {
	var jg JSONGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return nil, fmt.Errorf("sdf3x: decoding JSON: %w", err)
	}
	return jg.Build()
}

// Build turns the decoded shape into a validated graph: task names must be
// unique, buffer endpoints must name tasks, and the result must pass
// csdf.Validate. Every JSON entry point (ReadJSON, DecodeJSON, kiterd's
// /analyze envelope) builds through here.
func (jg *JSONGraph) Build() (*csdf.Graph, error) {
	g := csdf.NewGraph(jg.Name)
	ids := make(map[string]csdf.TaskID, len(jg.Tasks))
	for _, t := range jg.Tasks {
		if _, dup := ids[t.Name]; dup {
			return nil, fmt.Errorf("sdf3x: duplicate task name %q", t.Name)
		}
		ids[t.Name] = g.AddTask(t.Name, t.Durations)
	}
	for _, b := range jg.Buffers {
		src, ok := ids[b.Src]
		if !ok {
			return nil, fmt.Errorf("sdf3x: buffer %q: unknown source %q", b.Name, b.Src)
		}
		dst, ok := ids[b.Dst]
		if !ok {
			return nil, fmt.Errorf("sdf3x: buffer %q: unknown destination %q", b.Name, b.Dst)
		}
		id := g.AddBuffer(b.Name, src, dst, b.In, b.Out, b.Initial)
		if b.Capacity > 0 {
			g.SetCapacity(id, b.Capacity)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

func taskNames(g *csdf.Graph) []string {
	names := make([]string, g.NumTasks())
	used := map[string]bool{}
	for _, t := range g.Tasks() {
		n := t.Name
		if n == "" || used[n] {
			// The fallback may itself be taken by an earlier task's own
			// name ("t1" then an unnamed task 1); emitting it twice would
			// make the output unreadable by ReadJSON.
			n = fmt.Sprintf("t%d", t.ID)
			for i := 1; used[n]; i++ {
				n = fmt.Sprintf("t%d_%d", t.ID, i)
			}
		}
		used[n] = true
		names[t.ID] = n
	}
	return names
}

// ReadFile loads a graph, dispatching on the file extension (.json, .xml).
func ReadFile(path string) (*csdf.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch strings.ToLower(filepath.Ext(path)) {
	case ".json":
		return ReadJSON(f)
	case ".xml":
		return ReadXML(f)
	default:
		return nil, fmt.Errorf("sdf3x: unsupported extension %q (want .json or .xml)", filepath.Ext(path))
	}
}

// WriteFile saves a graph, dispatching on the file extension.
func WriteFile(path string, g *csdf.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch strings.ToLower(filepath.Ext(path)) {
	case ".json":
		return WriteJSON(f, g)
	case ".xml":
		return WriteXML(f, g)
	default:
		return fmt.Errorf("sdf3x: unsupported extension %q (want .json or .xml)", filepath.Ext(path))
	}
}
