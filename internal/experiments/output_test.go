package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vbundle/internal/core"
)

func TestWriteSVGsAndJSON(t *testing.T) {
	out, err := RunQoS(QoSParams{Duration: 120 * time.Second, Run: Run{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteSVGs(dir, out.Charts()); err != nil {
		t.Fatal(err)
	}
	for _, stem := range []string{"fig12-failed-calls", "fig13-rt-cdf"} {
		data, err := os.ReadFile(filepath.Join(dir, stem+".svg"))
		if err != nil {
			t.Fatalf("%s: %v", stem, err)
		}
		if !strings.HasPrefix(string(data), "<svg") {
			t.Fatalf("%s is not SVG", stem)
		}
	}

	jsonPath := filepath.Join(dir, "out.json")
	if err := WriteJSON(jsonPath, out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if _, ok := decoded["FailedCalls"]; !ok {
		t.Fatalf("JSON missing FailedCalls: %v", decoded)
	}
}

func TestPlacementChartsPerWave(t *testing.T) {
	out, err := RunPlacement(PlacementParams{
		Spec:                  ScaledSpec(64),
		VMsPerWavePerCustomer: 10,
		Waves:                 2,
		Engine:                core.EngineDHT,
		Run:                   Run{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	charts := out.Charts()
	if len(charts) != 2 {
		t.Fatalf("charts = %d, want one per wave", len(charts))
	}
	for stem, chart := range charts {
		doc := chart.Render()
		if !strings.Contains(doc, "Accolade") {
			t.Errorf("%s missing customer legend", stem)
		}
	}
}

func TestRebalanceChartsComplete(t *testing.T) {
	out, err := RunRebalance(smallRebalance(0.1))
	if err != nil {
		t.Fatal(err)
	}
	charts := out.Charts()
	for _, stem := range []string{"fig9-utilization", "fig10-sd", "fig11-satisfied"} {
		if charts[stem] == nil {
			t.Errorf("missing chart %s", stem)
		}
	}
	sweep, err := RunAggLatency(AggLatencyParams{Sizes: []int{16, 32}, Run: Run{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Charts()["fig14-agg-latency"] == nil {
		t.Error("missing fig14 chart")
	}
	msg, err := RunMessageOverhead(MessageOverheadParams{Sizes: []int{32}, Run: Run{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if msg.Charts()["fig15-msgs-per-round"] == nil {
		t.Error("missing fig15 chart")
	}
}
