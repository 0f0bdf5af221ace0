package flight

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"

	"github.com/subsum/subsum/internal/metrics"
)

func TestRecordRoundTrip(t *testing.T) {
	r := NewRecorder(8192)
	r.Record(EvSubscribe, 3, 7, 2, 0, "")
	r.Record(EvPeriodEnd, -1, 4, 21, 9000, "")
	r.Record(EvMergeError, 5, 128, 0, 0, "summary: bad version")

	recs := r.Records()
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3", len(recs))
	}
	want := []Record{
		{Seq: 0, Type: EvSubscribe, TypeName: "subscribe", Broker: 3, A: 7, B: 2},
		{Seq: 1, Type: EvPeriodEnd, TypeName: "period-end", Broker: -1, A: 4, B: 21, C: 9000},
		{Seq: 2, Type: EvMergeError, TypeName: "merge-error", Broker: 5, A: 128, Note: "summary: bad version"},
	}
	for i, w := range want {
		g := recs[i]
		if g.UnixNano == 0 {
			t.Errorf("record %d: zero timestamp", i)
		}
		g.UnixNano = 0
		if g != w {
			t.Errorf("record %d = %+v, want %+v", i, g, w)
		}
	}
}

// TestCapacityBound proves the journal's memory is bounded: after writing
// far more than the capacity, retained bytes never exceed the ring size,
// eviction is FIFO, and the newest records survive.
func TestCapacityBound(t *testing.T) {
	const capBytes = minCapacity
	r := NewRecorder(capBytes)
	const writes = 5000
	for i := 0; i < writes; i++ {
		r.Record(EvSubscribe, i%24, int64(i), 0, 0, "note-padding-to-make-records-bigger")
	}
	st := r.Stats()
	if st.Bytes > capBytes {
		t.Fatalf("retained %d bytes > capacity %d", st.Bytes, capBytes)
	}
	if st.Evicted == 0 {
		t.Fatalf("no evictions after %d writes into %d bytes", writes, capBytes)
	}
	if st.Records+int(st.Evicted) != writes {
		t.Fatalf("records %d + evicted %d != writes %d", st.Records, st.Evicted, writes)
	}
	recs := r.Records()
	if len(recs) != st.Records {
		t.Fatalf("decoded %d records, stats say %d", len(recs), st.Records)
	}
	// FIFO: the retained window is the newest contiguous suffix.
	for i, rec := range recs {
		wantSeq := uint64(writes - len(recs) + i)
		if rec.Seq != wantSeq {
			t.Fatalf("record %d seq = %d, want %d", i, rec.Seq, wantSeq)
		}
	}
}

func TestNoteTruncation(t *testing.T) {
	r := NewRecorder(0) // clamped to the minimum
	long := strings.Repeat("x", 4*maxNote)
	r.Record(EvWatchdogViolation, 1, 0, 0, 0, long)
	recs := r.Records()
	if len(recs) != 1 || len(recs[0].Note) != maxNote {
		t.Fatalf("note length = %d, want %d", len(recs[0].Note), maxNote)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(EvSubscribe, 0, 0, 0, 0, "ignored")
	if got := r.Records(); got != nil {
		t.Fatalf("nil recorder returned records: %v", got)
	}
	if st := r.Stats(); st != (Stats{}) {
		t.Fatalf("nil recorder stats: %+v", st)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRecorder(16 * 1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(EvMergeOK, g, int64(i), 0, 0, "")
				if i%100 == 0 {
					_ = r.Records()
					_ = r.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	st := r.Stats()
	if st.NextSeq != 4000 {
		t.Fatalf("next seq = %d, want 4000", st.NextSeq)
	}
	if st.Bytes > 16*1024 {
		t.Fatalf("retained %d bytes > capacity", st.Bytes)
	}
	// Sequence numbers of retained records must be strictly increasing.
	recs := r.Records()
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatalf("seq not increasing at %d: %d then %d", i, recs[i-1].Seq, recs[i].Seq)
		}
	}
}

func TestWriteTextAndJSON(t *testing.T) {
	r := NewRecorder(8192)
	r.Record(EvDrop, 4, 1, 77, 0, "summary")
	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "drop") || !strings.Contains(text.String(), "broker=4") {
		t.Fatalf("text output: %q", text.String())
	}
	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Stats   Stats    `json:"stats"`
		Records []Record `json:"records"`
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Stats.Records != 1 || len(doc.Records) != 1 || doc.Records[0].TypeName != "drop" {
		t.Fatalf("json doc: %+v", doc)
	}
}

func TestDump(t *testing.T) {
	r := NewRecorder(8192)
	r.Record(EvPeriodStart, -1, 1, 0, 0, "")
	reg := metrics.NewRegistry()
	reg.Counter("events_published").Add(42)

	var buf bytes.Buffer
	if err := Dump(&buf, r, reg); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Journal []Record           `json:"journal"`
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Metrics["events_published"] != 42 {
		t.Fatalf("metrics in dump: %v", doc.Metrics)
	}
	// The journal is dumped as recorded: the dump adds no record of its own.
	if len(doc.Journal) != 1 || doc.Journal[0].TypeName != "period-start" {
		t.Fatalf("journal in dump: %+v", doc.Journal)
	}
}

func TestDumpToFile(t *testing.T) {
	r := NewRecorder(8192)
	r.Record(EvFullSync, -1, 3, 0, 0, "")
	path := t.TempDir() + "/crash.json"
	if err := DumpToFile(path, r, nil); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Journal []Record `json:"journal"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Journal) != 1 || doc.Journal[0].TypeName != "full-sync" {
		t.Fatalf("journal in file: %+v", doc.Journal)
	}
}
