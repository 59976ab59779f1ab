package main

import (
	"time"

	"github.com/crhkit/crh"
)

// logRec is one observation of an ingest log, in the flattened shape
// crhd keeps: names, not indices, so the log can be rebuilt into a
// fresh dataset at every version.
type logRec struct {
	src, obj, prop string
	typ            crh.Type
	cat            string
	f              float64
	ts             int
	hasTS          bool
}

// schema is the interning order of a log's sources and properties.
type schema struct {
	sources []string
	props   []crh.Property
}

// absorbLog flattens d into an object-major log, the order in which
// crhd stores a created dataset.
func absorbLog(d *crh.Dataset) (schema, []logRec) {
	var sc schema
	for k := 0; k < d.NumSources(); k++ {
		sc.sources = append(sc.sources, d.SourceName(k))
	}
	for m := 0; m < d.NumProps(); m++ {
		sc.props = append(sc.props, *d.Prop(m))
	}
	var log []logRec
	for i := 0; i < d.NumObjects(); i++ {
		for m := 0; m < d.NumProps(); m++ {
			p := d.Prop(m)
			d.ForEntry(d.Entry(i, m), func(k int, v crh.Value) {
				r := logRec{src: d.SourceName(k), obj: d.ObjectName(i), prop: p.Name, typ: p.Type, f: v.F}
				if p.Type == crh.Categorical {
					r.cat, r.f = p.CatName(int(v.C)), 0
				}
				if d.HasTimestamps() {
					r.ts, r.hasTS = d.Timestamp(i), true
				}
				log = append(log, r)
			})
		}
	}
	return sc, log
}

// batchLog converts a batch's claims to log records.
func batchLog(b batch) []logRec {
	out := make([]logRec, len(b.claims))
	for i, c := range b.claims {
		r := logRec{src: c.Source, obj: c.Object, prop: c.Property}
		switch v := c.Value.(type) {
		case string:
			r.typ, r.cat = crh.Categorical, v
		case float64:
			r.typ, r.f = crh.Continuous, v
		}
		out[i] = r
	}
	return out
}

// buildLog replays log records into a fresh data.Builder and builds the
// dataset. chunkTS > 0 stamps every object with that timestamp (an
// I-CRH chunk); otherwise records keep their own timestamps.
func buildLog(sc schema, log []logRec, chunkTS int) *crh.Dataset {
	b := crh.NewBuilder()
	for _, s := range sc.sources {
		b.Source(s)
	}
	pid := make(map[string]int, len(sc.props))
	for _, p := range sc.props {
		pid[p.Name] = b.MustProperty(p.Name, p.Type)
	}
	for _, r := range log {
		obj := b.Object(r.obj)
		switch {
		case chunkTS > 0:
			b.SetTimestampIdx(obj, chunkTS)
		case r.hasTS:
			b.SetTimestampIdx(obj, r.ts)
		}
		m := pid[r.prop]
		v := crh.Float(r.f)
		if r.typ == crh.Categorical {
			v = crh.Cat(b.CatValue(m, r.cat))
		}
		b.ObserveIdx(b.Source(r.src), obj, m, v)
	}
	return b.Build()
}

// replayIngest replays serve-ingest's batch sequence in process, calling
// the layers crhd's ingest and cold resolve run, directly: per batch, a
// rebuild of the whole log through data.Builder and Build
// (data.rebuild_ms), stream.Processor.Process on the batch as one chunk
// (stream.process_ms), and a traced solve of the rebuilt dataset
// (core.*). Spans take op ids from firstOp on.
func replayIngest(layers map[string]float64, d *crh.Dataset, batches []batch, rec *recorder, firstOp int, t *tally) {
	sc, log := absorbLog(d)
	proc := crh.NewStreamProcessor(d.NumSources(), crh.StreamOptions{Decay: 1, DecaySet: true})
	var (
		rebuild, process []float64
		cs               coreSamples
	)
	for i, b := range batches {
		op := firstOp + i
		recs := batchLog(b)
		log = append(log, recs...)
		t0 := time.Now()
		snap := buildLog(sc, log, 0)
		t1 := time.Now()
		chunk := buildLog(sc, recs, i+2) // the batch's version, as crhd stamps it
		t2 := time.Now()
		proc.Process(chunk)
		t3 := time.Now()
		root := rec.add("replay", 0, op, t0, t3)
		rec.add("data.rebuild", root, op, t0, t1)
		rec.add("stream.process", root, op, t2, t3)
		rebuild = append(rebuild, ms(t1.Sub(t0)))
		process = append(process, ms(t3.Sub(t2)))

		st, res, err := tracedSolve(snap, rec, op)
		if t.check(err == nil, "replayed solve %d: %v", i+1, err) {
			cs.add(st, res)
		}
	}
	cs.fill(layers)
	layers["data.rebuild_ms"] = median(rebuild)
	layers["stream.process_ms"] = median(process)
}
