package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"vbundle/internal/experiments"
	"vbundle/internal/ids"
	"vbundle/internal/pastry"
	"vbundle/internal/sim"
	"vbundle/internal/topology"
)

// Every vbundle/internal package must fold to a named layer row, so a new
// package cannot silently land in cpu.other.
func TestEveryInternalPackageHasARow(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("..", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]bool)
	for _, r := range cpuRows {
		rows[r] = true
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		row, ok := packageRow[e.Name()]
		switch {
		case !ok:
			t.Errorf("internal/%s has no layer row in packageRow", e.Name())
		case !rows[row] || row == "other":
			t.Errorf("internal/%s maps to %q, which is not a named layer row", e.Name(), row)
		}
	}
}

func TestRowOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "vbundle/internal/pastry.(*Node).Consider"}, "runtime"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{[]string{"internal/runtime/atomic.(*Uint32).Load", "vbundle/internal/sim.(*Engine).Step"}, "runtime"},
		{[]string{"vbundle/internal/placement.(*bootQuery).visited", "vbundle/internal/placement.(*dhtAgent).tryAdmit"}, "placement"},
		{[]string{"crypto/sha1.blockAMD64", "crypto/sha1.(*digest).Write", "vbundle/internal/ids.HashString", "vbundle/internal/pastry.NewRing"}, "ids"},
		{[]string{"sort.Search", "vbundle/internal/aggregation.(*Manager).onChildUpdate"}, "aggregation"},
		{[]string{"container/heap.Push", "vbundle/internal/sim.(*Engine).push"}, "sim"},
		{[]string{"vbundle/internal/core.(*VBundle).BandwidthSatisfaction"}, "cluster"},
		{[]string{"vbundle/internal/sim.heap[go.shape.*uint8].push", "main.main"}, "sim"},
		{[]string{"crypto/sha256.block", "main.(*child).fingerprint", "main.main"}, "other"},
		{[]string{"main.treeHeight"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := rowOf(c.stack); got != c.want {
			t.Errorf("rowOf(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestFoldTracesText(t *testing.T) {
	text := []byte(`File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.mallocgc
             vbundle/internal/pastry.(*Node).Consider
-----------+-------------------------------------------------------
      10ms   crypto/sha1.blockAMD64
             vbundle/internal/ids.HashString
-----------+-------------------------------------------------------
      1.20s   vbundle/internal/sim.(*Engine).Step
-----------+-------------------------------------------------------
`)
	shares, err := foldTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"runtime": 0.03 / 1.24, "ids": 0.01 / 1.24, "sim": 1.2 / 1.24}
	for _, row := range cpuRows {
		if math.Abs(shares[row]-want[row]) > 1e-12 {
			t.Errorf("share[%s] = %v, want %v", row, shares[row], want[row])
		}
	}
}

// TestFoldRecordedProfile records a real CPU profile of work inside the
// simulator's packages, folds it with go tool pprof, and checks that the
// rows cover every sample.
func TestFoldRecordedProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("records a CPU profile")
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(700 * time.Millisecond)
	for seed := int64(0); time.Now().Before(deadline); seed++ {
		topo, err := topology.New(experiments.ScaledSpec(512))
		if err != nil {
			t.Fatal(err)
		}
		pastry.NewRing(sim.NewEngine(seed), topo, pastry.Config{}, pastry.HierarchyAssigner).BuildStatic()
		ids.HashString("perfbench")
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	shares, err := foldProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, row := range cpuRows {
		sum += shares[row]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1: %v", sum, shares)
	}
	if shares["pastry"] == 0 {
		t.Errorf("no CPU folded to pastry: %v", shares)
	}
}

// BENCHMARK.json must declare exactly the metrics the harness prints, with
// the same units.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no body", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v; the harness has %s", names, workloadNames())
	}
	e2e := make(map[string]metric)
	endToEndMetrics(e2e, []rep{{}})
	compareDeclared(t, "end_to_end", spec.EndToEnd, e2e)
	layer := make(map[string]metric)
	layerMetrics(layer, rep{}, []rep{{}}, map[string]float64{}, result{})
	compareDeclared(t, "per_layer", spec.PerLayer, layer)
}

func compareDeclared(t *testing.T, section string, declared []struct{ Name, Unit string }, printed map[string]metric) {
	t.Helper()
	seen := make(map[string]bool)
	for _, d := range declared {
		seen[d.Name] = true
		m, ok := printed[d.Name]
		if !ok {
			t.Errorf("%s: %q is declared but not printed", section, d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("%s: %q declared in %q, printed in %q", section, d.Name, d.Unit, m.Unit)
		}
	}
	var extra []string
	for name := range printed {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("%s: printed but not declared: %v", section, extra)
	}
}
