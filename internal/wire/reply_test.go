package wire

import (
	"bufio"
	"encoding/json"
	"math"
	"net"
	"strings"
	"testing"
	"time"
)

// rawExchange sends one line and decodes the next reply line.
func rawExchange(t *testing.T, c net.Conn, line string) Response {
	t.Helper()
	if _, err := c.Write([]byte(line + "\n")); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(c)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		t.Fatalf("no reply to %q: %v", line, sc.Err())
	}
	var resp Response
	if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
		t.Fatalf("undecodable reply %q: %v", sc.Bytes(), err)
	}
	return resp
}

// TestUnknownOpReply: an unknown op echoes the op back in a typed error
// reply on the same connection. The telemetry ops the debug listener
// serves instead are unknown here.
func TestUnknownOpReply(t *testing.T) {
	addr, _ := startServer(t)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, op := range []string{"frobnicate", "history", "convergence", "slo"} {
		resp := rawExchange(t, c, `{"op":"`+op+`"}`)
		if resp.Type != "reply" || resp.Op != op || !strings.Contains(resp.Error, "unknown op") {
			t.Fatalf("%s reply = %+v", op, resp)
		}
	}
	// The connection stays usable.
	if resp := rawExchange(t, c, `{"op":"ping"}`); resp.Error != "" {
		t.Fatalf("connection dead after unknown op: %+v", resp)
	}
}

// TestMalformedJSONReply: a non-JSON line gets a "bad request" error
// reply and the connection survives.
func TestMalformedJSONReply(t *testing.T) {
	addr, _ := startServer(t)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp := rawExchange(t, c, `{"op":`)
	if resp.Type != "reply" || !strings.Contains(resp.Error, "bad request") {
		t.Fatalf("malformed-json reply = %+v", resp)
	}
	if resp := rawExchange(t, c, `{"op":"ping"}`); resp.Error != "" {
		t.Fatalf("connection dead after malformed json: %+v", resp)
	}
}

// TestOversizedRequestReply: a request line past the server's 1 MiB
// scanner limit draws an explanatory error reply before the connection
// closes, instead of a silent hangup.
func TestOversizedRequestReply(t *testing.T) {
	addr, _ := startServer(t)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	huge := `{"op":"publish","event":"` + strings.Repeat("x", 2<<20) + `"}`
	if _, err := c.Write([]byte(huge + "\n")); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(c)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		t.Fatalf("no reply to oversized request: %v", sc.Err())
	}
	var resp Response
	if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Error, "too large") {
		t.Fatalf("oversized-request reply = %+v", resp)
	}
	// The server closes the connection afterwards (the stream is no
	// longer line-aligned); the next read must hit EOF, not hang.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if sc.Scan() {
		t.Fatalf("unexpected extra reply after oversized request: %q", sc.Bytes())
	}
}

// TestOverlongStringReply: a subscribe or extend line of well under the
// 1 MiB line limit can still carry a string longer than the 65 535 bytes
// a summary, subscription or snapshot codec can write; it draws an error
// reply, while a constant of exactly 65 535 bytes is subscribed.
func TestOverlongStringReply(t *testing.T) {
	addr, _ := startServer(t)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	over := strings.Repeat("X", math.MaxUint16+1)
	for _, line := range []string{
		`{"op":"subscribe","broker":3,"expr":"symbol = ` + over + `"}`,
		`{"op":"extend","attr":"` + over + `","attrtype":"float"}`,
	} {
		if resp := rawExchange(t, c, line); resp.Type != "reply" || !strings.Contains(resp.Error, "exceeds the codec") {
			t.Fatalf("%s of a %d-byte string: reply %+v", line[:20], len(over), resp)
		}
	}
	fits := `{"op":"subscribe","broker":3,"expr":"symbol = ` + over[1:] + `"}`
	if resp := rawExchange(t, c, fits); resp.Error != "" {
		t.Fatalf("subscribe of a %d-byte constant: %+v", len(over)-1, resp)
	}
}
