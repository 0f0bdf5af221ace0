package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
)

// span is one timed call from the harness into a layer. Spans are recorded
// from the benchmark's own files only (around the call, not inside the
// program); spans of one published event share its bench_seq.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index into the span list, -1 for a root
	Seq    int32  `json:"seq"`    // bench_seq of the event, -1 when none
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is the untraced run.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name, layer string, start int64, parent, seq int32) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: start, Parent: parent, Seq: seq})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(name, layer string, start, end int64, parent, seq int32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: start, End: end, Parent: parent, Seq: seq})
	t.mu.Unlock()
}

// durations returns the duration of every span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTime is a span name's row of the self-time table.
type selfTime struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Count   int    `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"` // total minus the part its children cover
}

// selfTimes computes, per span name, total time and self time: a span's
// duration minus the part of that interval its child spans cover (children
// on other goroutines may overlap each other, so the cover is a union).
func (t *tracer) selfTimes() []selfTime {
	type iv struct{ lo, hi int64 }
	kids := make(map[int32][]iv)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	rows := map[string]*selfTime{}
	for i, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &selfTime{Name: s.Name, Layer: s.Layer}
			rows[s.Name] = r
		}
		dur := s.End - s.Start
		ks := kids[int32(i)]
		sort.Slice(ks, func(a, b int) bool { return ks[a].lo < ks[b].lo })
		var covered int64
		at := s.Start
		for _, k := range ks {
			lo, hi := max(k.lo, at), min(k.hi, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		r.Count++
		r.TotalNs += dur
		r.SelfNs += dur - covered
	}
	out := make([]selfTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfNs > out[j].SelfNs })
	return out
}

// write dumps the spans and the self-time table as one JSON document.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Self  []selfTime `json:"self_time"`
		Spans []span     `json:"spans"`
	}{t.selfTimes(), t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
