// Command benchcheck parses `go test -bench -benchmem` output and requires
// 0 allocs/op of every named benchmark. It prints each parsed row, and it
// exits non-zero when a named benchmark allocates or is absent from the
// input: a renamed or deleted benchmark must fail the gate, not silently
// pass it.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkLSTGATForward|BenchmarkEnvStep' \
//	    -benchmem -benchtime=200x . > bench.txt
//	benchcheck -in bench.txt -names LSTGATForward,LSTGATForwardBatch,EnvStep
//
// Names are given without the Benchmark prefix and the -GOMAXPROCS suffix.
// Allocation counts at a fixed iteration count are deterministic, so this
// is the one performance gate a shared CI runner can hold; speed is judged
// by the repository benchmark (bench/README.md).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// row is one parsed benchmark result line.
type row struct {
	Name        string
	NsPerOp     float64
	BytesPerOp  int64
	AllocsPerOp int64
}

// cpuSuffix strips the -GOMAXPROCS suffix go test appends to bench names.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// parse extracts benchmark result rows from `go test -bench` output.
func parse(r io.Reader) ([]row, error) {
	var rows []row
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		rw := row{Name: cpuSuffix.ReplaceAllString(strings.TrimPrefix(fields[0], "Benchmark"), "")}
		for i := 2; i+1 < len(fields); i += 2 {
			v := fields[i]
			switch fields[i+1] {
			case "ns/op":
				rw.NsPerOp, _ = strconv.ParseFloat(v, 64)
			case "B/op":
				rw.BytesPerOp, _ = strconv.ParseInt(v, 10, 64)
			case "allocs/op":
				rw.AllocsPerOp, _ = strconv.ParseInt(v, 10, 64)
			}
		}
		rows = append(rows, rw)
	}
	return rows, sc.Err()
}

// check prints every row to w, marking the named ones, and returns one
// message per named benchmark that allocates or is missing from rows.
func check(w io.Writer, rows []row, names []string) []string {
	gated := make(map[string]bool, len(names))
	for _, n := range names {
		gated[n] = true
	}
	seen := make(map[string]bool, len(names))
	var failures []string
	for _, r := range rows {
		verdict := "not gated"
		if gated[r.Name] {
			seen[r.Name] = true
			verdict = "ok"
			if r.AllocsPerOp > 0 {
				verdict = "FAIL"
				failures = append(failures, fmt.Sprintf("%s: %d allocs/op, want 0", r.Name, r.AllocsPerOp))
			}
		}
		fmt.Fprintf(w, "benchcheck: %-28s %12.0f ns/op %6d B/op %4d allocs/op  %s\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, verdict)
	}
	for _, n := range names {
		if !seen[n] {
			failures = append(failures, n+": not in the input")
		}
	}
	return failures
}

func main() {
	in := flag.String("in", "-", "go test -bench -benchmem output to parse (- for stdin)")
	names := flag.String("names", "", "comma-separated benchmarks that must report 0 allocs/op, without the Benchmark prefix")
	flag.Parse()
	if *names == "" {
		fmt.Fprintln(os.Stderr, "benchcheck: -names is required")
		os.Exit(2)
	}

	src := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(1)
		}
		defer f.Close()
		src = f
	}
	rows, err := parse(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
	gated := strings.Split(*names, ",")
	failures := check(os.Stdout, rows, gated)
	for _, msg := range failures {
		fmt.Fprintln(os.Stderr, "benchcheck: FAIL:", msg)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: %d of %d gated benchmarks failed\n", len(failures), len(gated))
		os.Exit(1)
	}
}
