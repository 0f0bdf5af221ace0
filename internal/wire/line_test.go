package wire

import (
	"encoding/json"
	"reflect"
	"testing"
)

// marshalLine is what the reflective codec writes for v: the reference the
// hand encoder must match byte for byte.
func marshalLine(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// printable maps s onto printable ASCII, byte by byte.
func printable(s string) string {
	b := []byte(s)
	for i, c := range b {
		b[i] = ' ' + c%('~'-' '+1)
	}
	return string(b)
}

// FuzzWireLine checks the hand codec of flat lines against encoding/json:
// (a) the encoder writes json.Marshal's bytes for any Request and any flat
// Response, delivery lines included; (b) whatever the parser accepts,
// json.Unmarshal decodes without error to the same value, and it is
// canonical (the encoder writes it back unchanged); (c) the parser accepts
// every line the encoder writes from printable-ASCII strings.
func FuzzWireLine(f *testing.F) {
	strs := []string{"", "ping", `say "hi"`, `back\slash`, "tab\tnl\ncr\rnul\x00us\x1fbs\bff\f", "<a & b>",
		"line\u2028para\u2029", "bad\xffutf8\xc3", "日本 🙂", "\ufffd", "a/b", "del\x7f"}
	lines := []string{
		`{"op":"publish","broker":3,"event":"symbol=OTE price=8.40"}`,
		`{"op":"subscribe","broker":3,"expr":"price \u003c 8.7 \u0026\u0026 symbol = \"\u2028\""}`,
		`{"type":"delivery","broker":3,"local":1,"event":"{symbol=\"OTE\", price=8.4}"}`,
		`{"type":"reply","op":"propagate","hops":21}`,
		`{"type":"reply","op":"publish","error":"bad\\\"\n\t\u001f"}`,
		`{"op":"ping","broker":0}`, `{"op":"ping","broker":-0}`, `{"op":"ping","broker":007}`,
		`{"op":"ping","broker":+7}`, `{"op":"ping","local":-1}`, `{"op":"ping","local":4294967296}`,
		`{"op":"ping","broker":9223372036854775807}`, `{"op":"ping","broker":-9223372036854775808}`,
		`{"op":"ping","broker":9223372036854775808}`, `{"op":"ping","broker":18446744073709551619}`,
		`{"op":"\u003c\u2028\ufffd\/\u00e9\u0008"}`, `{"op":"a>b"}`, `{"op":"` + "\u2028" + `"}`,
		`{"op":"ping","expr":""}`, `{"op":"ping"} `, `{"broker":3,"op":"ping"}`, `{"op":"ping"`,
		`{"type":"reply","op":"stats","stats":{"a":1}}`, `{"type":"reply","hops":1.5}`, "",
	}
	for i, line := range lines {
		f.Add(strs[i%len(strs)], strs[(i+5)%len(strs)], int64(i*i-20), uint32(i), []byte(line))
	}
	f.Fuzz(func(t *testing.T, s1, s2 string, n int64, local uint32, raw []byte) {
		// (a)
		for _, req := range []Request{
			{Op: s1, Broker: int(n), Local: local, Expr: s2},
			{Op: s2, Event: s1, Attr: s2, AttrType: s1},
		} {
			if got, want := string(appendRequestLine(nil, &req)), marshalLine(t, req); got != want {
				t.Fatalf("request %+v:\n got %q\nwant %q", req, got, want)
			}
		}
		for _, resp := range []Response{
			{Type: s1, Op: s2, Error: s1, Broker: int(n), Local: local, Event: s2, Hops: int(-n)},
			{Type: s2, Event: s1},
		} {
			got, err := appendResponseLine(nil, &resp)
			if want := marshalLine(t, resp); err != nil || string(got) != want {
				t.Fatalf("response %+v:\n got %q, %v\nwant %q", resp, got, err, want)
			}
		}
		if s2 != "" {
			got := appendDeliveryLine(nil, int(n), local, appendString(nil, s2))
			if want := marshalLine(t, Response{Type: "delivery", Broker: int(n), Local: local, Event: s2}); string(got) != want {
				t.Fatalf("delivery:\n got %q\nwant %q", got, want)
			}
		}

		// (b)
		var req Request
		if parseFlatRequest(raw, &req) {
			var want Request
			if err := json.Unmarshal(raw, &want); err != nil || want != req {
				t.Fatalf("accepted request %q as %+v; encoding/json: %+v, %v", raw, req, want, err)
			}
			if again := appendRequestLine(nil, &req); string(again) != string(raw)+"\n" {
				t.Fatalf("accepted non-canonical request %q (canonical %q)", raw, again)
			}
		}
		var resp Response
		if parseFlatResponse(raw, &resp) {
			var want Response
			if err := json.Unmarshal(raw, &want); err != nil || !reflect.DeepEqual(want, resp) {
				t.Fatalf("accepted response %q as %+v; encoding/json: %+v, %v", raw, resp, want, err)
			}
			if again, _ := appendResponseLine(nil, &resp); string(again) != string(raw)+"\n" {
				t.Fatalf("accepted non-canonical response %q (canonical %q)", raw, again)
			}
		}

		// (c)
		p1, p2 := printable(s1), printable(s2)
		wantReq := Request{Op: p1, Broker: int(n), Local: local, Expr: p2, Event: p1, Attr: p2, AttrType: p1}
		line := appendRequestLine(nil, &wantReq)
		if req = (Request{}); !parseFlatRequest(line[:len(line)-1], &req) || req != wantReq {
			t.Fatalf("encoder wrote %q, parser gave %+v", line, req)
		}
		wantResp := Response{Type: p1, Op: p2, Error: p1, Broker: int(-n), Local: local, Event: p2, Hops: int(n)}
		line, _ = appendResponseLine(nil, &wantResp)
		if resp = (Response{}); !parseFlatResponse(line[:len(line)-1], &resp) || !reflect.DeepEqual(resp, wantResp) {
			t.Fatalf("encoder wrote %q, parser gave %+v", line, resp)
		}
	})
}

// TestParseFallsBackToJSON: valid JSON the hand parser does not accept —
// reordered keys, whitespace, raw < > &, explicit zeros, structured
// replies — still decodes, exactly as encoding/json decodes it.
func TestParseFallsBackToJSON(t *testing.T) {
	for _, line := range []string{
		`{"op":"subscribe","broker":3,"expr":"price > 100 && symbol = OTE"}`,
		`{"broker":3,"op":"publish","event":"price=150"}`,
		`{ "op": "ping" }`,
		`{"op":"unsubscribe","broker":3,"local":0}`,
		`{"op":"publish","event":"caf\u00e9"}`,
		`{"OP":"ping"}`,
	} {
		var got, want Request
		if parseFlatRequest([]byte(line), &got) {
			t.Fatalf("hand parser accepted non-canonical %s", line)
		}
		if err := parseRequest([]byte(line), &got); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if err := json.Unmarshal([]byte(line), &want); err != nil || got != want {
			t.Fatalf("%s: parsed %+v, encoding/json %+v (%v)", line, got, want, err)
		}
	}
	line := `{"type":"reply","op":"stats","stats":{"messages":7}}`
	var resp Response
	if err := parseResponse([]byte(line), &resp); err != nil || resp.Stats["messages"] != 7 {
		t.Fatalf("structured reply: %+v, %v", resp, err)
	}
	if err := parseRequest([]byte(`{"op":`), new(Request)); err == nil {
		t.Fatal("truncated line accepted")
	}
}
