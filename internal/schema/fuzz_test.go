package schema

import "testing"

// FuzzParseSubscription: the parser must never panic; accepted inputs must
// format and re-parse stably.
func FuzzParseSubscription(f *testing.F) {
	s := MustNew(
		Attribute{Name: "exchange", Type: TypeString},
		Attribute{Name: "price", Type: TypeFloat},
		Attribute{Name: "volume", Type: TypeInt},
	)
	f.Add(`exchange = "N*SE" && price < 8.70 && price > 8.30`)
	f.Add(`volume > 130000`)
	f.Add(`exchange >* OT`)
	f.Add(`price`)
	f.Add(`&&&&`)
	f.Add("exchange = \"unterminated")
	f.Fuzz(func(t *testing.T, text string) {
		sub, err := ParseSubscription(s, text)
		if err != nil {
			return
		}
		out := sub.Format(s)
		again, err := ParseSubscription(s, out)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q) failed: %v", out, text, err)
		}
		if again.Format(s) != out {
			t.Fatalf("format not stable: %q vs %q", again.Format(s), out)
		}
	})
}

// FuzzDecodeEvent: the binary event decoder must never panic, and an
// accepted event's Value agrees with a scan of its fields for every id.
func FuzzDecodeEvent(f *testing.F) {
	s := MustNew(
		Attribute{Name: "symbol", Type: TypeString},
		Attribute{Name: "price", Type: TypeFloat},
	)
	ev, err := ParseEvent(s, `symbol=OTE price=8.40`)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeEvent(nil, ev))
	f.Add(wireFields(ev.Fields()[1], ev.Fields()[0])) // out of order: the EventFromFields path
	f.Add([]byte{})
	f.Add([]byte{1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ev, n, err := DecodeEvent(s, data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		requireValueMatchesScan(t, s, "decoded", ev)
		// Accepted events re-encode and decode to the same fields.
		buf := EncodeEvent(nil, ev)
		if size := EncodedEventSize(ev); size != len(buf) || size != n {
			t.Fatalf("EncodedEventSize = %d, encoded %d bytes, decoded from %d", size, len(buf), n)
		}
		again, _, err := DecodeEvent(s, buf)
		if err != nil || again.Len() != ev.Len() {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

// FuzzGlobMatch: the backtracking matcher must terminate without panic on
// arbitrary pattern/subject pairs.
func FuzzGlobMatch(f *testing.F) {
	f.Add("m*t", "microsoft")
	f.Add("***", "")
	f.Add("a*b*c*d", "abcdabcd")
	f.Fuzz(func(t *testing.T, pattern, s string) {
		if len(pattern) > 64 || len(s) > 256 {
			return // keep worst-case backtracking bounded in test mode
		}
		got := GlobMatch(pattern, s)
		// Cross-check a basic soundness property: a pattern with no stars
		// matches only itself.
		hasStar := false
		for i := 0; i < len(pattern); i++ {
			if pattern[i] == '*' {
				hasStar = true
				break
			}
		}
		if !hasStar && got != (pattern == s) {
			t.Fatalf("literal pattern %q vs %q: got %v", pattern, s, got)
		}
	})
}
