package main

import (
	"io"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
BenchmarkLSTGATForward-4            	     200	    150000 ns/op	       0 B/op	       0 allocs/op
BenchmarkLSTGATForwardBatch-4       	     100	    800000 ns/op	       0 B/op	       0 allocs/op
BenchmarkWireEncode-4               	     200	       106.0 ns/op	7245.28 MB/s	       0 B/op	       0 allocs/op
PASS
`

func TestParse(t *testing.T) {
	rows, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	if rows[0].Name != "LSTGATForward" || rows[0].NsPerOp != 150000 || rows[0].AllocsPerOp != 0 {
		t.Errorf("row 0 = %+v", rows[0])
	}
	if rows[1].Name != "LSTGATForwardBatch" {
		t.Errorf("cpu suffix not stripped: %q", rows[1].Name)
	}
	// The MB/s column SetBytes adds shifts B/op and allocs/op right.
	if r := rows[2]; r.Name != "WireEncode" || r.NsPerOp != 106 || r.BytesPerOp != 0 || r.AllocsPerOp != 0 {
		t.Errorf("row 2 = %+v", r)
	}
}

func TestCheckPassesZeroAllocInput(t *testing.T) {
	rows, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if fails := check(io.Discard, rows, []string{"LSTGATForward", "LSTGATForwardBatch", "WireEncode"}); len(fails) != 0 {
		t.Errorf("complete zero-alloc input failed: %v", fails)
	}
}

func TestCheckFailsMissingName(t *testing.T) {
	rows, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	fails := check(io.Discard, rows, []string{"LSTGATForward", "WireHash"})
	if len(fails) != 1 || !strings.HasPrefix(fails[0], "WireHash:") {
		t.Errorf("missing WireHash: failures %v", fails)
	}
}

func TestCheckFailsAllocatingRow(t *testing.T) {
	in := strings.Replace(sampleOutput, "0 B/op\t       0 allocs/op", "48 B/op\t       2 allocs/op", 1)
	rows, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	fails := check(io.Discard, rows, []string{"LSTGATForward", "LSTGATForwardBatch"})
	if len(fails) != 1 || !strings.HasPrefix(fails[0], "LSTGATForward:") {
		t.Errorf("allocating LSTGATForward: failures %v", fails)
	}
}
