package sdf3x_test

import (
	"bytes"
	"testing"

	"kiter/internal/csdf"
	"kiter/internal/gen"
	"kiter/internal/sdf3x"
)

// FuzzReadJSON throws arbitrary bytes at the JSON graph reader — the gate
// every client-supplied /analyze body passes before kiterd answers it (and
// before its digest may enter the fast path's alias index). Malformed
// input must fail with an error, never a panic, and every accepted graph
// must survive WriteJSON → ReadJSON with its Fingerprint intact, with the
// rewritten form a fixed point of the round trip.
func FuzzReadJSON(f *testing.F) {
	seeds := []*csdf.Graph{
		gen.Figure2(), gen.SampleRateConverter(), gen.CyclicCSDF(),
		gen.MultiRateCycle(), gen.DeadlockedRing(), gen.KIterChain(4),
	}
	seeds = append(seeds, gen.ActualDSP().Graphs...)
	for _, g := range seeds {
		var buf bytes.Buffer
		if err := sdf3x.WriteJSON(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"tasks":[{"name":"t1","durations":[1]},{"durations":[2]}],"buffers":[{"src":"t1","dst":"","in":[1],"out":[1],"initial":1}]}`))
	f.Add([]byte(`{"tasks":[{"name":"a","durations":[1]}],"buffers":[{"src":"a","dst":"b","in":[1],"out":[1]}]}`))
	f.Add([]byte(`{"tasks":[{"name":"a","durations":[-1]}]}`))
	f.Add([]byte(`{"name":"empty"}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := sdf3x.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := sdf3x.WriteJSON(&first, g); err != nil {
			t.Fatalf("WriteJSON of an accepted graph: %v", err)
		}
		g2, err := sdf3x.ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ReadJSON rejects its own WriteJSON output: %v\n%s", err, first.Bytes())
		}
		if g.Fingerprint() != g2.Fingerprint() {
			t.Fatalf("round trip changed the fingerprint:\n%s", first.Bytes())
		}
		var second bytes.Buffer
		if err := sdf3x.WriteJSON(&second, g2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("WriteJSON is not a fixed point of the round trip:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// FuzzReadXML is FuzzReadJSON for the SDF3-flavoured XML reader, the other
// untrusted-input gate (kiterd batch mode and the CLI read .xml graphs).
// Malformed input must fail with an error, never a panic, and every
// accepted graph must survive WriteXML → ReadXML with its Fingerprint
// intact, with the rewritten form a fixed point of the round trip.
func FuzzReadXML(f *testing.F) {
	seeds := []*csdf.Graph{
		gen.Figure2(), gen.SampleRateConverter(), gen.CyclicCSDF(),
		gen.MultiRateCycle(), gen.DeadlockedRing(), gen.KIterChain(4),
	}
	seeds = append(seeds, gen.ActualDSP().Graphs...)
	for _, g := range seeds {
		var buf bytes.Buffer
		if err := sdf3x.WriteXML(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// A bounded two-task cycle: the only seed exercising channel sizes.
	f.Add([]byte(`<sdf3 type="csdf"><applicationGraph name="ring"><csdf name="ring">` +
		`<actor name="a"><port name="o" type="out" rate="2,1"/><port name="i" type="in" rate="1,2"/></actor>` +
		`<actor name="b"><port name="i" type="in" rate="1"/><port name="o" type="out" rate="1"/></actor>` +
		`<channel name="ab" srcActor="a" srcPort="o" dstActor="b" dstPort="i" initialTokens="0" size="6"/>` +
		`<channel name="ba" srcActor="b" srcPort="o" dstActor="a" dstPort="i" initialTokens="3"/>` +
		`</csdf><csdfProperties><actorProperties actor="a"><processor type="p" default="true">` +
		`<executionTime time="2,1"/></processor></actorProperties></csdfProperties></applicationGraph></sdf3>`))
	f.Add([]byte(`<sdf3><applicationGraph><csdf><actor name="a"><port name="p" type="out" rate="1"/></actor><channel srcActor="a" srcPort="p" dstActor="b" dstPort="q"/></csdf></applicationGraph></sdf3>`))
	f.Add([]byte(`<sdf3><applicationGraph><csdf><actor name="a"/><actor name="a"/></csdf></applicationGraph></sdf3>`))
	f.Add([]byte(`<sdf3><applicationGraph><csdf><actor name="a"><port name="p" type="out" rate="1,x"/></actor></csdf></applicationGraph></sdf3>`))
	f.Add([]byte(`<sdf3><applicationGraph><csdfProperties><actorProperties actor="a"><processor><executionTime time="-1"/></processor></actorProperties></csdfProperties></applicationGraph></sdf3>`))
	f.Add([]byte(`<sdf3><applicationGraph`))
	f.Add([]byte(`not xml`))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := sdf3x.ReadXML(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := sdf3x.WriteXML(&first, g); err != nil {
			t.Fatalf("WriteXML of an accepted graph: %v", err)
		}
		g2, err := sdf3x.ReadXML(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ReadXML rejects its own WriteXML output: %v\n%s", err, first.Bytes())
		}
		if g.Fingerprint() != g2.Fingerprint() {
			t.Fatalf("round trip changed the fingerprint:\n%s", first.Bytes())
		}
		var second bytes.Buffer
		if err := sdf3x.WriteXML(&second, g2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("WriteXML is not a fixed point of the round trip:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
