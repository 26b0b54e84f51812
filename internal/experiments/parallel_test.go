package experiments

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// The ISSUE-1 contract for the parallel harness: per-seed outputs of a
// sweep must be byte-identical whether the sweep points run sequentially
// or concurrently. Each trial owns its engine, ring and RNG, so any
// divergence means shared state leaked between trials.

func TestFig15ParallelMatchesSequential(t *testing.T) {
	base := MessageOverheadParams{
		Sizes:        []int{48, 96},
		Round:        30 * time.Second,
		VMsPerServer: 3,
		Run:          Run{Seed: 7},
	}
	seq := base
	seq.Parallelism = 1
	par := base
	par.Parallelism = 0 // all cores

	so, err := RunMessageOverhead(seq)
	if err != nil {
		t.Fatal(err)
	}
	po, err := RunMessageOverhead(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(so.Points, po.Points) {
		t.Errorf("parallel Fig 15 points diverge from sequential:\nseq: %+v\npar: %+v", so.Points, po.Points)
	}
	var sb, pb bytes.Buffer
	so.Report(&sb)
	po.Report(&pb)
	// The rendered reports embed Params (including Parallelism) nowhere, so
	// the bytes must match exactly.
	if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
		t.Errorf("parallel Fig 15 report differs from sequential:\n--- seq\n%s--- par\n%s", sb.String(), pb.String())
	}
}

func TestFig14ParallelMatchesSequential(t *testing.T) {
	base := AggLatencyParams{Sizes: []int{16, 32, 64, 128}, Run: Run{Seed: 3}}
	seq := base
	seq.Parallelism = 1
	par := base

	so, err := RunAggLatency(seq)
	if err != nil {
		t.Fatal(err)
	}
	po, err := RunAggLatency(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(so.Points, po.Points) {
		t.Errorf("parallel Fig 14 points diverge from sequential:\nseq: %+v\npar: %+v", so.Points, po.Points)
	}
	var sb, pb bytes.Buffer
	so.Report(&sb)
	po.Report(&pb)
	if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
		t.Errorf("parallel Fig 14 report differs from sequential:\n--- seq\n%s--- par\n%s", sb.String(), pb.String())
	}
}

func TestRebalanceSweepMatchesIndividualRuns(t *testing.T) {
	variants := []RebalanceParams{smallRebalance(0.1), smallRebalance(0.3)}
	swept, err := RunRebalanceSweep(variants, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(swept) != len(variants) {
		t.Fatalf("sweep returned %d outcomes, want %d", len(swept), len(variants))
	}
	for i, v := range variants {
		solo, err := RunRebalance(v)
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		solo.WriteFig9(&a)
		swept[i].WriteFig9(&b)
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("variant %d (thr=%g): sweep outcome differs from standalone run:\n--- solo\n%s--- sweep\n%s",
				i, v.Threshold, a.String(), b.String())
		}
	}
}

func TestPlacementTrialsOrderedBySeed(t *testing.T) {
	p := smallPlacement(0, 1)
	p.Spec = ScaledSpec(64)
	p.VMsPerWavePerCustomer = 20
	seeds := []int64{2, 5, 9}
	outs, err := RunPlacementTrials(p, seeds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(seeds) {
		t.Fatalf("got %d outcomes, want %d", len(outs), len(seeds))
	}
	for i, out := range outs {
		if out.Params.Seed != seeds[i] {
			t.Errorf("outcome %d has seed %d, want %d", i, out.Params.Seed, seeds[i])
		}
		if out.Waves[0].Placed == 0 {
			t.Errorf("outcome %d placed no VMs", i)
		}
	}
}
