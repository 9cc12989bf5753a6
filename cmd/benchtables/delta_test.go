package main

import (
	"strings"
	"testing"
)

// TestPrintScalingWarns: a sublinear 4-shard ratio prints the ratio
// and the warning pointing at the flight recorder.
func TestPrintScalingWarns(t *testing.T) {
	rows := []BenchResult{
		{Name: "engine_1shard", MBPerSec: 67.85},
		{Name: "engine_2shard", MBPerSec: 63.97},
		{Name: "engine_4shard", MBPerSec: 64.74},
	}
	var b strings.Builder
	printScaling(&b, rows)
	out := b.String()
	if !strings.Contains(out, "= 0.95x") {
		t.Errorf("scaling report missing ratio:\n%s", out)
	}
	if !strings.Contains(out, "WARNING") || !strings.Contains(out, "-trace") {
		t.Errorf("sublinear scaling did not warn:\n%s", out)
	}
}

// TestPrintScalingBelowBar: a ratio above break-even but under the
// 1.5x bar still warns — with parallel ingest, merely not losing is a
// regression.
func TestPrintScalingBelowBar(t *testing.T) {
	var b strings.Builder
	printScaling(&b, []BenchResult{
		{Name: "engine_1shard", MBPerSec: 50},
		{Name: "engine_4shard", MBPerSec: 60},
	})
	out := b.String()
	if !strings.Contains(out, "= 1.20x") || !strings.Contains(out, "WARNING") {
		t.Errorf("1.2x scaling did not warn against the 1.5x bar:\n%s", out)
	}
}

// TestPrintScalingQuietWhenScaling: a healthy ratio reports without
// warning, and missing rows print nothing at all.
func TestPrintScalingQuietWhenScaling(t *testing.T) {
	var b strings.Builder
	printScaling(&b, []BenchResult{
		{Name: "engine_1shard", MBPerSec: 50},
		{Name: "engine_4shard", MBPerSec: 150},
		{Name: "engine_4shard_4reader", MBPerSec: 175},
	})
	out := b.String()
	if !strings.Contains(out, "= 3.00x") {
		t.Errorf("scaling report missing ratio:\n%s", out)
	}
	if !strings.Contains(out, "engine_4shard_4reader") || !strings.Contains(out, "= 3.50x") {
		t.Errorf("segmented row missing from scaling report:\n%s", out)
	}
	if strings.Contains(out, "WARNING") {
		t.Errorf("healthy scaling warned:\n%s", out)
	}

	b.Reset()
	printScaling(&b, []BenchResult{{Name: "engine_1shard", MBPerSec: 50}})
	if b.Len() != 0 {
		t.Errorf("missing 4-shard row still printed: %q", b.String())
	}
}

// TestAllocCeilingFails: a decode_c37118 row over its machine-
// independent allocs/op ceiling is an error (runBench returns it and
// main exits non-zero), at the ceiling it is not, and rows without a
// ceiling are never judged.
func TestAllocCeilingFails(t *testing.T) {
	err := checkAllocCeilings([]BenchResult{
		{Name: "decode_modbus", AllocsPerOp: 5000},
		{Name: "decode_c37118", AllocsPerOp: 1297},
	})
	if err == nil || !strings.Contains(err.Error(), "decode_c37118") || !strings.Contains(err.Error(), "1297") {
		t.Fatalf("1297 allocs/op passed the ceiling: %v", err)
	}
	if strings.Contains(err.Error(), "decode_modbus") {
		t.Errorf("row without a ceiling was judged: %v", err)
	}
	if err := checkAllocCeilings([]BenchResult{{Name: "decode_c37118", AllocsPerOp: 32}}); err != nil {
		t.Errorf("row at the ceiling failed: %v", err)
	}
}
