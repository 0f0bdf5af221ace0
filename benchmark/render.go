package main

import (
	"strconv"
	"strings"

	"github.com/subsum/subsum/internal/schema"
)

// renderEvent writes ev in the `attr=value attr=value` form that
// schema.ParseEvent and the wire protocol's publish op accept. The
// engine's own Event.Format prints `{a=1, b="x"}` for humans and
// ParseEvent rejects it, so the TCP workload needs this renderer; a test
// holds render→ParseEvent→EncodeEvent byte-identical to encoding the
// original. Subscriptions need no renderer: Subscription.Format already
// round-trips through schema.ParseSubscription (the same test covers it).
func renderEvent(s *schema.Schema, ev *schema.Event) string {
	var b strings.Builder
	for i, f := range ev.Fields() {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(s.Name(f.Attr))
		b.WriteByte('=')
		switch f.Value.Type {
		case schema.TypeString:
			b.WriteString(strconv.Quote(f.Value.Str))
		case schema.TypeInt, schema.TypeDate: // a date parses from unix seconds
			b.WriteString(strconv.FormatInt(int64(f.Value.Num), 10))
		default:
			b.WriteString(strconv.FormatFloat(f.Value.Num, 'g', -1, 64))
		}
	}
	return b.String()
}

// seqOfDelivery extracts bench_seq from the Event.Format text a pushed
// delivery line carries.
func seqOfDelivery(text string) (int64, bool) {
	i := strings.Index(text, seqAttr+"=")
	if i < 0 {
		return 0, false
	}
	rest := text[i+len(seqAttr)+1:]
	end := 0
	for end < len(rest) && rest[end] >= '0' && rest[end] <= '9' {
		end++
	}
	n, err := strconv.ParseInt(rest[:end], 10, 64)
	return n, err == nil
}
