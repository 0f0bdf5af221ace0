// Crash dumps: the journal plus a registry snapshot, serialized to a
// file when the process panics or receives SIGQUIT. The dump is the
// flight recorder's reason for existing — the last seconds of engine
// history exactly as they were when things went wrong.
package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/subsum/subsum/internal/metrics"
)

// Dump writes the journal and the registry snapshot as one JSON document.
// Either argument may be nil; the corresponding section is omitted.
func Dump(w io.Writer, rec *Recorder, reg *metrics.Registry) error {
	doc := struct {
		WrittenAt string             `json:"written_at"`
		Stats     Stats              `json:"journal_stats"`
		Records   []Record           `json:"journal"`
		Metrics   map[string]float64 `json:"metrics,omitempty"`
	}{WrittenAt: time.Now().UTC().Format(time.RFC3339Nano)}
	if rec != nil {
		doc.Stats = rec.Stats()
		doc.Records = rec.Records()
	}
	if reg != nil {
		doc.Metrics = reg.Map()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// DumpToFile writes Dump output to path (created or truncated).
func DumpToFile(path string, rec *Recorder, reg *metrics.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Dump(f, rec, reg); err != nil {
		f.Close()
		return fmt.Errorf("flight: writing dump: %w", err)
	}
	return f.Close()
}
