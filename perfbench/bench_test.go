package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// smallRun runs one workload's small instance with every check on.
func smallRun(t *testing.T, workload string, seed int64, trace bool) *result {
	t.Helper()
	res, err := execute(options{workload: workload, seed: seed, seconds: 0.5, trace: trace, small: true})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func TestWorkloadsSmall(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			res := smallRun(t, name, 3, trace)
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d: %v", name, trace, len(res.Metrics), len(want), res.Metrics)
			}
		}
	}
}

// TestManifest checks that BENCHMARK.json lists exactly the metrics the
// benchmark prints, in their units.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
	for _, kind := range []struct {
		listed []struct{ Name, Unit string }
		want   []metricSpec
	}{{m.EndToEnd, endToEnd}, {m.PerLayer, perLayer}} {
		var got []metricSpec
		for _, x := range kind.listed {
			got = append(got, metricSpec{x.Name, x.Unit})
		}
		if !slices.Equal(got, kind.want) {
			t.Errorf("BENCHMARK.json lists %v, the benchmark prints %v", got, kind.want)
		}
	}
}

// TestLiveDeterministic runs live twice on one seed: everything measured in
// virtual time, every count and every metered instruction repeats exactly.
func TestLiveDeterministic(t *testing.T) {
	for _, trace := range []bool{false, true} {
		a, b := smallRun(t, "live", 5, trace), smallRun(t, "live", 5, trace)
		if a.Attempted != b.Attempted || a.Failed != b.Failed {
			t.Errorf("trace=%v: attempted %d/%d, failed %d/%d", trace, a.Attempted, b.Attempted, a.Failed, b.Failed)
		}
		for name, m := range a.Metrics {
			if wallClock(name) {
				continue
			}
			if b.Metrics[name] != m {
				t.Errorf("trace=%v: %s differs between runs of one seed: %v, %v", trace, name, m.Value, b.Metrics[name].Value)
			}
		}
	}
}

// wallClock reports the live metrics measured on the wall clock or read
// from the Go runtime, which no seed fixes.
func wallClock(name string) bool {
	switch name {
	case "setup_s", "ops_per_cpu_s", "upgrade_ms", "heap_bytes_per_utxo", "canister.snapshot_ms", "canister.restore_ms":
		return true
	}
	return strings.HasSuffix(name, "_us_per_block") || strings.HasPrefix(name, "canister.exec_us_p50.") ||
		strings.HasPrefix(name, "runtime.")
}

func TestSeedChangesInputs(t *testing.T) {
	s1, _, err := genSync(1, syncSize(true))
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := genSync(2, syncSize(true))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(s1.wire[0], s2.wire[0]) {
		t.Error("sync: seeds 1 and 2 generate the same first block")
	}
	q1, err := genQuery(1, querySize(true))
	if err != nil {
		t.Fatal(err)
	}
	q2, err := genQuery(2, querySize(true))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(q1.ch.wire[0], q2.ch.wire[0]) || q1.pop.addrs[0] == q2.pop.addrs[0] {
		t.Error("query: seeds 1 and 2 generate the same inputs")
	}
	l1, err := newLive(1, liveSize(true))
	if err != nil {
		t.Fatal(err)
	}
	l2, err := newLive(2, liveSize(true))
	if err != nil {
		t.Fatal(err)
	}
	if l1.addrs[addrPayee] == l2.addrs[addrPayee] || l1.addrs[addrMiner] == l2.addrs[addrMiner] {
		t.Error("live: seeds 1 and 2 share the payee or the miner")
	}
}
