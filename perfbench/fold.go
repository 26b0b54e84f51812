package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// cpuRows are the layer rows of the CPU table, in report order.
var cpuRows = []string{
	"sim", "simnet", "pastry", "scribe", "aggregation", "rebalance",
	"migration", "cluster", "tcshape", "topology", "placement", "serve",
	"workload", "ids", "obs", "runtime", "other",
}

// packageRow maps every vbundle/internal package to its layer row. Packages
// without a row of their own join the layer they serve: core is the cluster
// wiring, costbenefit the rebalancer's veto, parallel the engine's worker
// pool, store the durable placement records, experiments the load
// generators, and the measurement and reporting packages join obs.
var packageRow = map[string]string{
	"aggregation": "aggregation",
	"audit":       "obs",
	"benchparse":  "obs",
	"cluster":     "cluster",
	"core":        "cluster",
	"costbenefit": "rebalance",
	"experiments": "workload",
	"ids":         "ids",
	"metrics":     "obs",
	"migration":   "migration",
	"obs":         "obs",
	"parallel":    "sim",
	"pastry":      "pastry",
	"placement":   "placement",
	"profiling":   "obs",
	"rebalance":   "rebalance",
	"report":      "obs",
	"scribe":      "scribe",
	"serve":       "serve",
	"sim":         "sim",
	"simnet":      "simnet",
	"store":       "cluster",
	"tcshape":     "tcshape",
	"topology":    "topology",
	"workload":    "workload",
}

const internalPrefix = "vbundle/internal/"

// funcPackage returns the import path of a symbolized function name such
// as "vbundle/internal/pastry.(*Node).Consider" or "crypto/sha1.block".
func funcPackage(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// isStdlib reports whether an import path belongs to the standard library:
// its first element has no dot, and it is neither this module nor main.
func isStdlib(pkg string) bool {
	first, _, _ := strings.Cut(pkg, "/")
	return !strings.Contains(first, ".") && first != "vbundle" && pkg != "main"
}

// rowOf folds one sample's stack (leaf first) to a layer row: runtime frames
// (GC included) are runtime; a vbundle/internal frame is its package's row;
// any other standard-library leaf is charged to the innermost
// vbundle/internal frame on its stack; everything else is other.
func rowOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	leaf := funcPackage(stack[0])
	switch {
	case leaf == "runtime" || strings.HasPrefix(leaf, "runtime/") || strings.HasPrefix(leaf, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(leaf, internalPrefix):
		return internalRow(leaf)
	case isStdlib(leaf):
		for _, fn := range stack[1:] {
			if pkg := funcPackage(fn); strings.HasPrefix(pkg, internalPrefix) {
				return internalRow(pkg)
			}
		}
	}
	return "other"
}

func internalRow(pkg string) string {
	name, _, _ := strings.Cut(strings.TrimPrefix(pkg, internalPrefix), "/")
	if row, ok := packageRow[name]; ok {
		return row
	}
	return "other"
}

// foldProfile runs `go tool pprof -traces` (the go command on PATH) on a
// CPU profile and returns each row's share of the sampled CPU time. Shares
// sum to 1 unless the profile holds no samples, in which case every share
// is 0.
func foldProfile(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", profile, err)
	}
	return foldTraces(out)
}

// foldTraces parses pprof's -traces text: blocks separated by dashed lines,
// each starting with the sample value followed by the leaf frame, then one
// caller frame per line.
func foldTraces(text []byte) (map[string]float64, error) {
	byRow := make(map[string]float64, len(cpuRows))
	var total float64
	var value float64
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			byRow[rowOf(stack)] += value
			total += value
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inBody := false
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "-----------+"):
			flush()
			inBody = true
		case !inBody || trimmed == "" || !strings.HasPrefix(line, " "):
			// The header before the first block, and blank lines.
		case len(stack) == 0:
			fields := strings.Fields(trimmed)
			v, err := parseSampleValue(fields[0])
			if err != nil {
				return nil, err
			}
			value = v
			stack = append(stack, fields[1:]...)
		default:
			stack = append(stack, trimmed)
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	shares := make(map[string]float64, len(cpuRows))
	for _, row := range cpuRows {
		if total > 0 {
			shares[row] = byRow[row] / total
		}
	}
	return shares, nil
}

// parseSampleValue reads a CPU sample value as pprof prints it ("10ms",
// "1.20s") in seconds; a bare number is taken as-is.
func parseSampleValue(s string) (float64, error) {
	if d, err := time.ParseDuration(s); err == nil {
		return d.Seconds(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("pprof traces: bad sample value %q", s)
	}
	return v, nil
}
