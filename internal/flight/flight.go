// Package flight implements the engine's flight recorder: a bounded,
// binary ring journal of structured engine events. Where the metrics
// registry answers "how many" and the sampler answers "how fast over
// time", the journal answers "in what order" — it retains the last N
// kilobytes of discrete engine happenings (subscription churn,
// propagation period boundaries, merge outcomes, message loss, watchdog
// violations) with per-broker context and wall-clock timestamps, so a
// post-mortem can line events up against the metrics time-series.
//
// Records are encoded into a fixed-capacity byte ring; when the ring is
// full the oldest whole records are evicted, so memory is provably
// bounded regardless of event rate. Recording is lock-cheap: the record
// is varint-encoded into a stack scratch buffer outside the lock, and the
// critical section is an eviction scan plus one bounded copy. A nil
// *Recorder is valid and records nothing, so instrumented code pays one
// branch when the journal is off — the same discipline as the registry
// instruments.
package flight

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// EventType tags a journal record.
type EventType uint8

// Journal event types recorded by the live engine.
const (
	// EvSubscribe: a subscription was registered (A = local id, B = number
	// of constrained attributes).
	EvSubscribe EventType = iota + 1
	// EvUnsubscribe: a subscription was removed (A = local id).
	EvUnsubscribe
	// EvPeriodStart: an Algorithm 2 propagation period began (A = period
	// number).
	EvPeriodStart
	// EvPeriodEnd: the period completed (A = period number, B = summary
	// hops, C = total summary payload bytes).
	EvPeriodEnd
	// EvFullSync: the period ships full merged summaries instead of deltas
	// (A = period number).
	EvFullSync
	// EvMergeOK: a received summary merged cleanly (A = payload bytes,
	// B = carried Merged_Brokers count).
	EvMergeOK
	// EvMergeError: a summary merge was rejected (A = payload bytes); the
	// note carries the error.
	EvMergeError
	// EvDrop: the fault-injection hook dropped a message (A = kind,
	// B = payload bytes; broker = destination); the note names the kind.
	EvDrop
	// EvDecodeError: a delivered payload could not be decoded (A = kind);
	// the note names the kind.
	EvDecodeError
	// EvWatchdogViolation: an invariant check failed; the note carries the
	// check name and detail.
	EvWatchdogViolation
	// EvCrashDump: a crash dump was requested (panic or SIGQUIT).
	EvCrashDump
	// EvRetract: an unsubscribe queued a retraction for a subscription
	// that had already been propagated (A = local id).
	EvRetract
	// EvConvergence: end-of-period convergence snapshot (A = period
	// number, B = max staleness in periods across all epoch-vector
	// entries, C = number of tracked entries lagging by one period or
	// more).
	EvConvergence
	// EvFPAttribution: a false positive was charged to a new
	// (attribute, operator-class, owner) triple, admitted while the
	// attributor's top-K had room (broker = owner, A = attribute id, B =
	// operator class); the note names the attribute and operator class.
	EvFPAttribution
	// EvPhaseStart: a scenario phase began (A = phase index, B = planned
	// periods); the note names the phase.
	EvPhaseStart
	// EvPhaseEnd: a scenario phase completed (A = phase index, B = ticks
	// run); the note names the phase.
	EvPhaseEnd
	// EvSLOBreach: an SLO's error budget was exhausted — the objective
	// transitioned into the breach state (A = fast-burn in milli-units,
	// B = slow-burn in milli-units, C = budget remaining in milli-units);
	// the note names the objective.
	EvSLOBreach
	// EvSLORecover: a breached SLO transitioned back out of breach; the
	// note names the objective.
	EvSLORecover
)

// String names the event type.
func (t EventType) String() string {
	switch t {
	case EvSubscribe:
		return "subscribe"
	case EvUnsubscribe:
		return "unsubscribe"
	case EvPeriodStart:
		return "period-start"
	case EvPeriodEnd:
		return "period-end"
	case EvFullSync:
		return "full-sync"
	case EvMergeOK:
		return "merge-ok"
	case EvMergeError:
		return "merge-error"
	case EvDrop:
		return "drop"
	case EvDecodeError:
		return "decode-error"
	case EvWatchdogViolation:
		return "watchdog-violation"
	case EvCrashDump:
		return "crash-dump"
	case EvRetract:
		return "retract"
	case EvConvergence:
		return "convergence"
	case EvFPAttribution:
		return "fp-attribution"
	case EvPhaseStart:
		return "phase-start"
	case EvPhaseEnd:
		return "phase-end"
	case EvSLOBreach:
		return "slo-breach"
	case EvSLORecover:
		return "slo-recover"
	default:
		return fmt.Sprintf("event(%d)", uint8(t))
	}
}

// Record is one decoded journal entry. A, B and C are type-specific
// arguments (see the EventType docs); Broker is -1 for network-level
// events.
type Record struct {
	Seq      uint64    `json:"seq"`
	UnixNano int64     `json:"unix_nano"`
	Type     EventType `json:"-"`
	TypeName string    `json:"type"`
	Broker   int       `json:"broker"`
	A        int64     `json:"a"`
	B        int64     `json:"b"`
	C        int64     `json:"c"`
	Note     string    `json:"note,omitempty"`
}

// maxNote bounds the free-text payload of a record so a single Record
// call can never occupy more than a sliver of the ring.
const maxNote = 128

// minCapacity is the smallest usable ring; NewRecorder clamps up to it.
const minCapacity = 4096

// Recorder is the bounded ring journal. All methods are safe for
// concurrent use; all methods are also safe on a nil receiver (they
// record and report nothing), so callers hold a plain pointer that is nil
// when the journal is disabled.
type Recorder struct {
	mu   sync.Mutex
	data []byte // circular; absolute offsets are taken modulo len(data)
	head uint64 // absolute offset of the oldest record
	tail uint64 // absolute offset one past the newest record

	seq     uint64 // next sequence number
	records int    // records currently retained
	evicted uint64 // records pushed out by the capacity bound
}

// NewRecorder returns a journal retaining at most capBytes of encoded
// records (clamped to a 4 KiB minimum).
func NewRecorder(capBytes int) *Recorder {
	if capBytes < minCapacity {
		capBytes = minCapacity
	}
	return &Recorder{data: make([]byte, capBytes)}
}

// Record appends one event. broker is the owning broker id (-1 for
// network-level events); a, b, c are type-specific arguments; note is
// bounded free text (truncated at 128 bytes).
func (r *Recorder) Record(t EventType, broker int, a, b, c int64, note string) {
	if r == nil {
		return
	}
	if len(note) > maxNote {
		note = note[:maxNote]
	}
	// Encode outside the lock: type, seq placeholder skipped (seq is
	// assigned under the lock, so it is encoded there into the scratch
	// prefix), then the fixed fields.
	var scratch [1 + 6*binary.MaxVarintLen64 + maxNote]byte
	body := scratch[:0]
	body = append(body, byte(t))
	body = binary.AppendVarint(body, time.Now().UnixNano())
	body = binary.AppendVarint(body, int64(broker))
	body = binary.AppendVarint(body, a)
	body = binary.AppendVarint(body, b)
	body = binary.AppendVarint(body, c)
	body = binary.AppendUvarint(body, uint64(len(note)))
	body = append(body, note...)

	r.mu.Lock()
	defer r.mu.Unlock()
	var hdr [2 * binary.MaxVarintLen64]byte
	seqBytes := binary.PutUvarint(hdr[:], r.seq)
	r.seq++
	recLen := uint64(seqBytes + len(body))
	var lenHdr [binary.MaxVarintLen64]byte
	lenBytes := binary.PutUvarint(lenHdr[:], recLen)
	total := uint64(lenBytes) + recLen
	if total > uint64(len(r.data)) {
		return // cannot fit at all; drop (unreachable with the 4 KiB min)
	}
	// Evict whole records from the head until the new one fits.
	for r.tail+total-r.head > uint64(len(r.data)) {
		n, consumed := r.uvarintAt(r.head)
		r.head += uint64(consumed) + n
		r.records--
		r.evicted++
	}
	r.copyIn(lenHdr[:lenBytes])
	r.copyIn(hdr[:seqBytes])
	r.copyIn(body)
	r.records++
}

// copyIn appends p at the tail, wrapping as needed; callers hold r.mu and
// have already made room.
func (r *Recorder) copyIn(p []byte) {
	n := uint64(len(r.data))
	off := r.tail % n
	c := copy(r.data[off:], p)
	if c < len(p) {
		copy(r.data, p[c:])
	}
	r.tail += uint64(len(p))
}

// uvarintAt decodes a uvarint at absolute offset off; callers hold r.mu.
func (r *Recorder) uvarintAt(off uint64) (v uint64, consumed int) {
	n := uint64(len(r.data))
	var shift uint
	for i := 0; ; i++ {
		b := r.data[(off+uint64(i))%n]
		if b < 0x80 {
			return v | uint64(b)<<shift, i + 1
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
}

// Records decodes and returns every retained record, oldest first.
func (r *Recorder) Records() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Record, 0, r.records)
	n := uint64(len(r.data))
	for off := r.head; off < r.tail; {
		recLen, consumed := r.uvarintAt(off)
		start := off + uint64(consumed)
		// Copy the record body into a linear scratch for decoding.
		body := make([]byte, recLen)
		for i := range body {
			body[i] = r.data[(start+uint64(i))%n]
		}
		off = start + recLen
		rec, err := decodeRecord(body)
		if err != nil {
			// A decode failure means ring corruption; surface what we have.
			break
		}
		out = append(out, rec)
	}
	return out
}

// decodeRecord parses one linearized record body.
func decodeRecord(body []byte) (Record, error) {
	var rec Record
	seq, n := binary.Uvarint(body)
	if n <= 0 || n >= len(body) {
		return rec, fmt.Errorf("flight: bad seq")
	}
	rec.Seq = seq
	body = body[n:]
	rec.Type = EventType(body[0])
	rec.TypeName = rec.Type.String()
	body = body[1:]
	fields := []*int64{&rec.UnixNano, nil, &rec.A, &rec.B, &rec.C}
	var brokerV int64
	fields[1] = &brokerV
	for _, f := range fields {
		v, n := binary.Varint(body)
		if n <= 0 {
			return rec, fmt.Errorf("flight: truncated record")
		}
		*f = v
		body = body[n:]
	}
	rec.Broker = int(brokerV)
	noteLen, n := binary.Uvarint(body)
	if n <= 0 || uint64(len(body)-n) < noteLen {
		return rec, fmt.Errorf("flight: truncated note")
	}
	rec.Note = string(body[n : n+int(noteLen)])
	return rec, nil
}

// Stats describes the journal's current occupancy.
type Stats struct {
	Records  int    `json:"records"`
	Bytes    int    `json:"bytes"`    // encoded bytes currently retained
	Capacity int    `json:"capacity"` // ring size in bytes
	Evicted  uint64 `json:"evicted"`  // records pushed out by the bound
	NextSeq  uint64 `json:"next_seq"`
}

// Stats returns the journal occupancy counters.
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Records:  r.records,
		Bytes:    int(r.tail - r.head),
		Capacity: len(r.data),
		Evicted:  r.evicted,
		NextSeq:  r.seq,
	}
}

// WriteJSON renders the retained journal as a JSON object with occupancy
// stats and the decoded records, oldest first.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Stats   Stats    `json:"stats"`
		Records []Record `json:"records"`
	}{r.Stats(), r.Records()})
}

// WriteText renders the journal as human-readable lines, oldest first.
func (r *Recorder) WriteText(w io.Writer) error {
	for _, rec := range r.Records() {
		ts := time.Unix(0, rec.UnixNano).UTC().Format("15:04:05.000000")
		line := fmt.Sprintf("%8d %s %-18s broker=%d a=%d b=%d c=%d", rec.Seq, ts, rec.TypeName, rec.Broker, rec.A, rec.B, rec.C)
		if rec.Note != "" {
			line += " " + rec.Note
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}
