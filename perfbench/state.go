package main

import (
	"fmt"
	"runtime"
	"time"

	"icbtc/internal/canister"
	"icbtc/internal/ic"
)

// upgradeTimes are the samples of Snapshot+RestoreSnapshot cycles.
type upgradeTimes struct{ total, snap, restore samples }

// cycles times n Snapshot+RestoreSnapshot cycles of can and returns the
// canister the last one restored, with the snapshot it was restored from.
// Each cycle drops the previous copy; with collect it also starts after a
// collection, which a state of a few hundred UTXOs does not need.
func (u *upgradeTimes) cycles(tr *tracer, can *canister.BitcoinCanister, n int, collect bool, trace int64) (*canister.BitcoinCanister, []byte, error) {
	var restored *canister.BitcoinCanister
	var snap []byte
	for i := 0; i < n; i++ {
		restored, snap = nil, nil
		if collect {
			runtime.GC()
		}
		id := tr.begin("canister.upgrade", trace, 0)
		t0 := time.Now()
		sid := tr.begin("canister.snapshot", trace, id)
		s, err := can.Snapshot()
		t1 := time.Now()
		tr.end(sid)
		if err != nil {
			return nil, nil, fmt.Errorf("snapshot: %w", err)
		}
		rid := tr.begin("canister.restore", trace, id)
		c, err := canister.RestoreSnapshot(s)
		t2 := time.Now()
		tr.end(rid)
		tr.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("restore: %w", err)
		}
		u.total = append(u.total, ms(t2.Sub(t0)))
		u.snap = append(u.snap, ms(t1.Sub(t0)))
		u.restore = append(u.restore, ms(t2.Sub(t1)))
		restored, snap = c, s
	}
	return restored, snap, nil
}

// setState sets the upgrade's layer metrics: snapshot and restore time and
// the snapshot's size per stable UTXO.
func (u *upgradeTimes) setState(r *run, snapBytes, stable int) {
	r.set("canister.snapshot_ms", "ms", u.snap.median())
	r.set("canister.restore_ms", "ms", u.restore.median())
	r.set("canister.snapshot_bytes_per_utxo", "bytes", float64(snapBytes)/float64(stable))
}

// replayLayers re-runs the block path's layers standalone over a chain from
// genesis, as the traced sync run does on each payload, and records spans
// for the blocks above height from. now is the validation clock.
func replayLayers(tr *tracer, wire [][]byte, from int64, now time.Time) error {
	l := newSyncLayers(now)
	for i, w := range wire {
		h := int64(i + 1)
		t := tr
		if h <= from {
			t = nil
		}
		if err := l.block(t, w, h); err != nil {
			return fmt.Errorf("layer re-run of block %d: %w", h, err)
		}
	}
	return nil
}

// setBlockLayers sets the block path's layer metrics from the tracer's
// spans over n blocks and returns the time they cover.
func setBlockLayers(r *run, tr *tracer, n int) time.Duration {
	lt := tr.layerTimes()
	perBlock := func(d time.Duration) float64 { return us(d) / float64(n) }
	decode, prepare := lt["btc.decode"].total, lt["ingest.prepare"].total
	validate, fold := lt["chain.validate"].total, lt["utxo.fold"].total
	r.set("btc.decode_us_per_block", "us", perBlock(decode))
	// PrepareWire decodes the block itself; its own work is the rest.
	r.set("ingest.prepare_us_per_block", "us", perBlock(prepare-decode))
	r.set("chain.validate_us_per_block", "us", perBlock(validate))
	r.set("utxo.fold_us_per_block", "us", perBlock(fold))
	return prepare + validate + fold
}

// runtimeCounters are the allocation and collection counters at one
// instant, or their growth over a phase.
type runtimeCounters struct {
	bytes, objects uint64
	gcCPU          float64
}

func readRuntime() runtimeCounters {
	b, o := allocCounters()
	return runtimeCounters{b, o, gcCPUSeconds()}
}

// since returns the counters' growth from c0 to now.
func (c0 runtimeCounters) since() runtimeCounters {
	c1 := readRuntime()
	return runtimeCounters{c1.bytes - c0.bytes, c1.objects - c0.objects, c1.gcCPU - c0.gcCPU}
}

func (d runtimeCounters) plus(e runtimeCounters) runtimeCounters {
	return runtimeCounters{d.bytes + e.bytes, d.objects + e.objects, d.gcCPU + e.gcCPU}
}

// set sets the runtime's layer metrics from the counters' growth over ops
// operations that used cpu.
func (d runtimeCounters) set(r *run, ops int64, cpu time.Duration) {
	r.set("runtime.alloc_bytes_per_op", "bytes", float64(d.bytes)/float64(ops))
	r.set("runtime.allocs_per_op", "count", float64(d.objects)/float64(ops))
	r.set("runtime.gc_cpu_share", "ratio", d.gcCPU/cpu.Seconds())
}

// readProbe times the canister's own Query, called directly, on the state a
// workload leaves: each address's balance and first UTXO page, the fee
// percentiles and a range of headers, reps times over. It sets each
// method's execution p50 and metered instructions, and the UTXOs a page
// returns.
func readProbe(r *run, can *canister.BitcoinCanister, addrs []string, now time.Time, reps int) {
	tip := can.TipHeight()
	var exec, instr [numOps]samples
	var utxos, pages int
	call := func(op int, arg any) any {
		ctx := ic.NewCallContext(ic.KindQuery, now)
		t0 := time.Now()
		v, err := can.Query(ctx, opNames[op], arg)
		d := time.Since(t0)
		r.check(err == nil, "read probe %s: %v", opNames[op], err)
		exec[op] = append(exec[op], us(d))
		instr[op] = append(instr[op], float64(ctx.Meter.Total()))
		return v
	}
	for i := 0; i < reps; i++ {
		for _, a := range addrs {
			call(opBalance, canister.GetBalanceArgs{Address: a})
			if res, _ := call(opUTXOs, canister.GetUTXOsArgs{Address: a}).(*canister.GetUTXOsResult); res != nil {
				utxos += len(res.UTXOs)
				pages++
			}
		}
		call(opFees, nil)
		start := 1 + int64(i)%max(1, tip-headerRange)
		call(opHeaders, canister.GetBlockHeadersArgs{StartHeight: start, EndHeight: min(tip, start+headerRange-1)})
	}
	for _, op := range []int{opBalance, opUTXOs, opFees, opHeaders} {
		r.set("canister.exec_us_p50."+opNames[op], "us", exec[op].median())
		r.set("ic.instr_per_query."+opNames[op], "instructions", instr[op].mean())
	}
	r.set("utxo.utxos_per_query", "count", float64(utxos)/float64(max(1, pages)))
}
