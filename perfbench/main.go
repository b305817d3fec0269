// Command perfbench is the repository's end-to-end benchmark. It runs one of
// three workloads against the unmodified program, checks every output against
// an independent ledger built from the generated inputs, and prints one JSON
// line with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1):
//
//	perfbench --workload sync|query|live --seed N --seconds S --trace 0|1
//
// See README.md for the workloads, the metrics and reference figures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// small shrinks every workload to a size the package's test runs in
	// seconds, with every check still on. Only the test sets it.
	small bool
	// spans, when set, is the directory the traced run writes its spans to.
	spans string
}

// run is the outcome of one workload: its counts, its metrics, and the
// first failed output check (nil when every check passed).
type run struct {
	attempted, failed int64
	metrics           map[string]metric
	checkErr          error
	spans             *tracer
	// notes are human-readable details (round and sample counts, the tail
	// percentile chosen) printed before the result line.
	notes []string
}

func (r *run) set(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records the first failed output check.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok && r.checkErr == nil {
		r.checkErr = fmt.Errorf(format, args...)
	}
}

// metricSpec is a metric's name and unit, as BENCHMARK.json lists it.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics an untraced run prints and perLayer those a
// traced run prints. Every workload prints every one of its kind: a layer
// the workload does not use reads 0 on the count and ratio metrics, and the
// timed layer metrics time calls every workload makes.
var (
	endToEnd = []metricSpec{
		{"setup_s", "s"},
		{"ops_per_cpu_s", "1/cpu-s"},
		{"op_ms_p50", "ms"},
		{"op_ms_tail", "ms"},
		{"instr_per_op", "instructions"},
		{"heap_bytes_per_utxo", "bytes"},
		{"upgrade_ms", "ms"},
		{"fresh_s_p50", "s"},
		{"fresh_s_tail", "s"},
	}
	perLayer = []metricSpec{
		{"btc.decode_us_per_block", "us"},
		{"ingest.prepare_us_per_block", "us"},
		{"chain.validate_us_per_block", "us"},
		{"utxo.fold_us_per_block", "us"},
		{"canister.snapshot_ms", "ms"},
		{"canister.restore_ms", "ms"},
		{"canister.snapshot_bytes_per_utxo", "bytes"},
		{"runtime.alloc_bytes_per_op", "bytes"},
		{"runtime.allocs_per_op", "count"},
		{"runtime.gc_cpu_share", "ratio"},
		{"canister.payloads_counted_ratio", "ratio"},
		{"canister.blocks_counted_ratio", "ratio"},
		{"canister.exec_us_p50.get_balance", "us"},
		{"canister.exec_us_p50.get_utxos", "us"},
		{"canister.exec_us_p50.get_current_fee_percentiles", "us"},
		{"canister.exec_us_p50.get_block_headers", "us"},
		{"ic.instr_per_query.get_balance", "instructions"},
		{"ic.instr_per_query.get_utxos", "instructions"},
		{"ic.instr_per_query.get_current_fee_percentiles", "instructions"},
		{"ic.instr_per_query.get_block_headers", "instructions"},
		{"utxo.utxos_per_query", "count"},
		{"queryfleet.cache_hits_per_op", "ratio"},
		{"queryfleet.coalesced_per_op", "ratio"},
		{"tecdsa.signatures_per_op", "count"},
		{"adapter.requests_per_block", "count"},
	}
)

var workloads = map[string]func(options) (*run, error){
	"sync":  runSync,
	"query": runQuery,
	"live":  runLive,
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: sync, query or live")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.StringVar(&o.spans, "spans", "", "directory the traced run writes its spans to")
	flag.Parse()
	o.trace = *trace == 1

	res, err := execute(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one workload and assembles its result line.
func execute(o options) (*result, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want sync, query or live)", o.workload)
	}
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	r, err := fn(o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	if r.checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", r.checkErr)
	}
	if o.trace && r.spans != nil && o.spans != "" {
		path := filepath.Join(o.spans, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := r.spans.writeFile(path); err != nil {
			return nil, err
		}
		fmt.Printf("spans: %d written to %s\n", r.spans.len(), path)
	}
	// Each run prints one kind of metric, all of that kind, on every
	// workload.
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	metrics := map[string]metric{}
	for _, m := range want {
		v, ok := r.metrics[m.name]
		if !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s (%s) missing or not a number: %+v", o.workload, m.name, m.unit, v)
		}
		metrics[m.name] = v
	}
	return &result{
		Correct:   r.checkErr == nil,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	}, nil
}

// workers is the load generator's parallelism: one client goroutine or
// pipeline worker per CPU the process may use.
func workers() int { return runtime.GOMAXPROCS(0) }
