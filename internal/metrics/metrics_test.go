package metrics

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := NewTable("Figure X", "sigma", "broadcast", "summary")
	tab.AddRow(10, int64(123456), 42.5)
	tab.AddRow(1000, int64(9), 0.125)
	out := tab.String()
	if !strings.Contains(out, "Figure X") {
		t.Fatalf("missing title: %s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("lines = %d: %s", len(lines), out)
	}
	if !strings.Contains(lines[1], "sigma") || !strings.Contains(lines[3], "123456") {
		t.Fatalf("table = %s", out)
	}
	if tab.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tab.NumRows())
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "sigma,broadcast,summary\n") {
		t.Fatalf("CSV = %s", csv)
	}
	if !strings.Contains(csv, "10,123456,42.5") {
		t.Fatalf("CSV = %s", csv)
	}
}

func TestCSVQuoting(t *testing.T) {
	tab := NewTable("", "pattern", "count")
	tab.AddRow(`contains "a,b"`, 3)
	tab.AddRow("plain", 1)
	tab.AddRow("line\nbreak", 2)
	csv := tab.CSV()
	lines := strings.Split(csv, "\n")
	if lines[0] != "pattern,count" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != `"contains ""a,b""",3` {
		t.Fatalf("quoted row = %q", lines[1])
	}
	if lines[2] != "plain,1" {
		t.Fatalf("plain row = %q", lines[2])
	}
	// The embedded newline stays inside one quoted cell.
	if !strings.Contains(csv, "\"line\nbreak\",2\n") {
		t.Fatalf("newline cell mangled: %q", csv)
	}
	// A comma-bearing column header must be quoted too.
	tab2 := NewTable("", "a,b")
	tab2.AddRow("x")
	if !strings.HasPrefix(tab2.CSV(), `"a,b"`+"\n") {
		t.Fatalf("header quoting: %q", tab2.CSV())
	}
}
