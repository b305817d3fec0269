package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"icbtc/internal/adapter"
	"icbtc/internal/btc"
	"icbtc/internal/canister"
	"icbtc/internal/chain"
	"icbtc/internal/experiments"
	"icbtc/internal/ic"
	"icbtc/internal/ingest"
	"icbtc/internal/obs"
	"icbtc/internal/utxo"
)

// syncShape sizes the sync workload.
type syncShape struct {
	blocks      int // blocks per round, fed from genesis to a fresh canister
	txsPerBlock int
	scale       int // divisor of the paper's 1000-address Fig 7 population
	perPayload  int // blocks per SyncWire payload
	upgrades    int // Snapshot+RestoreSnapshot samples per round
	setups      int // set-up repetitions; set-up time is their median
	checked     int // sampled addresses checked against the ledger
}

func syncSize(small bool) syncShape {
	if small {
		return syncShape{blocks: 24, txsPerBlock: 60, scale: 40, perPayload: 4, upgrades: 1, setups: 1, checked: 6}
	}
	return syncShape{blocks: 400, txsPerBlock: 500, scale: 1, perPayload: 4, upgrades: 3, setups: 3, checked: 12}
}

// syncCanisterConfig is the catch-up canister: regtest parameters with their
// default δ=6, so all but the last blocks fold into the stable set.
func syncCanisterConfig() canister.Config { return canister.DefaultConfig(btc.Regtest) }

// The block shape of the repository's ingest and snapshot scenarios
// (experiments.DefaultIngestConfig): every transaction pays two outputs and
// every sixth spends one earlier output; the others spend an outpoint from
// outside the generated history, as value arriving from untracked history.
const (
	syncOutputsPerTx = 2
	syncSpendEvery   = 6
)

// genSync generates the sync chain: txsPerBlock transactions per block in
// the ingest scenario's shape, each output paid to a payee drawn in the
// Fig 7 skew.
func genSync(seed int64, sh syncShape) (*genChain, *population, error) {
	rng := rand.New(rand.NewSource(seed))
	_, pop := fig7Population(seed, sh.scale)
	pay := newPayees(rng, pop)
	g := newChainGen(seed)
	for b := 0; b < sh.blocks; b++ {
		specs := make([]experiments.TxSpec, sh.txsPerBlock)
		for t := range specs {
			outs := make([]btc.TxOut, syncOutputsPerTx)
			for k := range outs {
				outs[k] = btc.TxOut{Value: 546 + rng.Int63n(1_000_000), PkScript: pop.scripts[pay.next()]}
			}
			specs[t] = experiments.TxSpec{Outputs: outs}
			if t%syncSpendEvery == syncSpendEvery-1 {
				specs[t].Inputs = 1
			}
		}
		if _, err := g.next(specs); err != nil {
			return nil, nil, err
		}
	}
	return g.c, pop, nil
}

// syncLayers re-runs each layer's public call on the blocks of a payload,
// standalone and single-threaded, for the traced run. Each call is a span.
type syncLayers struct {
	tree *chain.Tree
	set  *utxo.Set
	prep *ingest.Preparer
	now  time.Time // the validation clock
}

func newSyncLayers(now time.Time) *syncLayers {
	params := btc.RegtestParams()
	return &syncLayers{
		tree: chain.NewTree(params.GenesisHeader, 0),
		set:  utxo.New(btc.Regtest),
		prep: ingest.NewPreparer(btc.Regtest, 1),
		now:  now,
	}
}

func (l *syncLayers) block(tr *tracer, wire []byte, height int64) error {
	id := tr.begin("btc.decode", height, 0)
	_, err := btc.ParseBlockFast(wire)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("ingest.prepare", height, 0)
	pb := l.prep.PrepareWire(0, wire, height)
	tr.end(id)
	if pb.Err != nil {
		return pb.Err
	}
	id = tr.begin("chain.validate", height, 0)
	parent := l.tree.Get(pb.Block.Header.PrevBlock)
	err = chain.ValidateHeader(&pb.Block.Header, parent, btc.RegtestParams(), l.now)
	if err == nil {
		err = chain.ValidateBlock(pb.Block)
	}
	if err == nil {
		_, err = l.tree.Insert(pb.Block.Header)
	}
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("utxo.fold", height, 0)
	l.set.ApplyBlockIngest(pb.Block, height)
	tr.end(id)
	return nil
}

func runSync(o options) (*run, error) {
	sh := syncSize(o.small)
	r := &run{}
	var tr *tracer
	if o.trace {
		tr = newTracer()
		r.spans = tr
	}

	var ch *genChain
	var pop *population
	var setups samples
	for i := 0; i < sh.setups; i++ {
		ch, pop = nil, nil
		runtime.GC()
		t := time.Now()
		var err error
		if ch, pop, err = genSync(o.seed, sh); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	r.set("setup_s", "s", setups.median())

	cfg := syncCanisterConfig()
	// After each payload one get_balance asks the canister for a population
	// address: the first answer that reflects the payload's blocks.
	probe := rand.New(rand.NewSource(o.seed))
	var (
		lat, fresh       samples
		up               upgradeTimes
		cpu              time.Duration
		instr            uint64
		blocks, payloads int
		final, synced    *canister.BitcoinCanister
		finalSnap        []byte
		rt               runtimeCounters
		rtCPU            time.Duration
	)
	start := time.Now()
	for round := 0; round == 0 || time.Since(start).Seconds() < o.seconds; round++ {
		// Every round starts from the same heap: the last round's state is
		// dropped and collected before the clock runs again.
		final, synced = nil, nil
		runtime.GC()
		can := canister.New(cfg)
		var layers *syncLayers
		if o.trace {
			layers = newSyncLayers(genesisTime)
		}
		for p := 0; p < len(ch.wire); p += sh.perPayload {
			batch := ch.wire[p:min(p+sh.perPayload, len(ch.wire))]
			ctx := ic.NewCallContext(ic.KindUpdate, genesisTime)
			var rt0 runtimeCounters
			if o.trace {
				rt0 = readRuntime()
			}
			id := tr.begin("canister.sync", int64(payloads), 0)
			c0, t0 := cpuTime(), time.Now()
			st, err := can.SyncWire(ctx, batch, ingest.Config{Workers: workers()})
			wall, used := time.Since(t0), cpuTime()-c0
			tr.end(id)
			if o.trace {
				rt = rt.plus(rt0.since())
				rtCPU += used
			}
			if err != nil {
				return nil, fmt.Errorf("SyncWire: %w", err)
			}
			addr := pop.addrs[probe.Intn(len(pop.addrs))]
			_, qerr := can.Query(ic.NewCallContext(ic.KindQuery, genesisTime), "get_balance", canister.GetBalanceArgs{Address: addr})
			fresh = append(fresh, time.Since(t0).Seconds())
			r.check(qerr == nil, "get_balance(%s) after payload %d: %v", addr, payloads, qerr)
			if o.trace {
				for i, w := range batch {
					if err := layers.block(tr, w, int64(p+i+1)); err != nil {
						return nil, fmt.Errorf("layer re-run of block %d: %w", p+i+1, err)
					}
				}
			}
			r.check(st.Accepted == len(batch) && st.Rejected == 0,
				"payload %d: %d of %d blocks accepted", payloads, st.Accepted, len(batch))
			lat = append(lat, ms(wall))
			cpu += used
			instr += ctx.Meter.Total()
			blocks += len(batch)
			payloads++
		}
		var err error
		if final, finalSnap, err = up.cycles(tr, can, sh.upgrades, true, int64(round)); err != nil {
			return nil, err
		}
		synced = can
	}
	measured := time.Since(start)
	rounds := blocks / len(ch.wire)
	r.attempted = int64(blocks)
	r.note("sync: %d rounds of %d blocks in %d payloads in %.1fs; %d stable UTXOs; %.1f blocks per cpu-s, payload p50 %.2f ms",
		rounds, len(ch.wire), payloads, measured.Seconds(), final.StableUTXOCount(), float64(blocks)/cpu.Seconds(), lat.median())

	r.set("ops_per_cpu_s", "1/cpu-s", float64(blocks)/cpu.Seconds())
	r.set("op_ms_p50", "ms", lat.median())
	setTail(r, "op_ms_tail", "ms", lat, "payloads")
	r.set("instr_per_op", "instructions", float64(instr)/float64(blocks))
	r.set("upgrade_ms", "ms", up.total.median())
	r.set("fresh_s_p50", "s", fresh.median())
	r.set("fresh_s_tail", "s", fresh.quantile(freshTail))

	checked := checkSync(r, ch, pop, sh, final, finalSnap)
	// The restored canister starts a fresh registry, so the counters are
	// read from the one SyncWire fed.
	payloadsCounted, blocksCounted := counterParity(synced.Metrics())
	stable := final.StableUTXOCount()

	if o.trace {
		n := float64(blocks)
		covered := setBlockLayers(r, tr, blocks)
		up.setState(r, len(finalSnap), stable)
		rt.set(r, int64(blocks), rtCPU)
		r.set("canister.payloads_counted_ratio", "ratio", float64(payloadsCounted)/float64(payloads/rounds))
		r.set("canister.blocks_counted_ratio", "ratio", float64(blocksCounted)/float64(len(ch.wire)))
		var addrs []string
		for _, i := range checked {
			addrs = append(addrs, pop.addrs[i])
		}
		readProbe(r, final, addrs, genesisTime, 20)
		// Sync serves nothing through a fleet, signs nothing and has no
		// adapter.
		r.set("queryfleet.cache_hits_per_op", "ratio", 0)
		r.set("queryfleet.coalesced_per_op", "ratio", 0)
		r.set("tecdsa.signatures_per_op", "count", 0)
		r.set("adapter.requests_per_block", "count", 0)
		r.note("traced sync: SyncWire %.1f us cpu, %.1f us wall per block; layers re-run standalone cover %.1f us per block, leaving %.1f us to SyncWire itself",
			us(cpu)/n, lat.sum()*1e3/n, us(covered)/n, us(cpu-covered)/n)
		return r, nil
	}

	// Live heap of the state SyncWire built, alone: the generated inputs and
	// the upgraded copy go first.
	ch, pop, final, finalSnap = nil, nil, nil, nil
	r.set("heap_bytes_per_utxo", "bytes", float64(liveHeap())/float64(stable))
	runtime.KeepAlive(synced)
	return r, nil
}

// checkSync checks the synced state against the ledger: the stable UTXO
// count, the balance and full paged UTXO walk of sampled addresses, that the
// upgrade restored the same state, and that the same blocks fed one per
// ProcessPayload leave a byte-identical snapshot. It returns the sampled
// addresses' population indices.
func checkSync(r *run, ch *genChain, pop *population, sh syncShape, final *canister.BitcoinCanister, snap []byte) []int {
	tip := ch.ledger.tip()
	r.check(final.TipHeight() == tip, "canister tip %d, ledger tip %d", final.TipHeight(), tip)
	anchor := final.AnchorHeight()
	wantAnchor := tip - syncCanisterConfig().StabilityThreshold + 1
	r.check(anchor == wantAnchor, "anchor at %d, want %d (δ-stability)", anchor, wantAnchor)
	r.check(final.StableUTXOCount() == ch.ledger.unspentAt(anchor),
		"stable UTXOs %d, ledger has %d unspent at the anchor %d", final.StableUTXOCount(), ch.ledger.unspentAt(anchor), anchor)

	// The most paid addresses, then a seeded sample of the rest.
	rng := rand.New(rand.NewSource(int64(tip)))
	picked := pop.heaviest(3)
	for len(picked) < sh.checked {
		picked = append(picked, rng.Intn(len(pop.addrs)))
	}
	for _, i := range picked {
		checkAddress(r, final, ch.ledger, pop.addrs[i], pop.scripts[i], tip)
	}

	again, err := final.Snapshot()
	r.check(err == nil && bytes.Equal(again, snap), "restored canister's snapshot differs from the one it was restored from")

	serial := canister.New(syncCanisterConfig())
	for i, w := range ch.wire {
		b, err := btc.ParseBlock(w)
		if err != nil {
			r.check(false, "block %d does not parse: %v", i+1, err)
			return picked
		}
		resp := adapter.Response{Blocks: []adapter.BlockWithHeader{{Block: b, Header: b.Header}}}
		if err := serial.ProcessPayload(ic.NewCallContext(ic.KindUpdate, genesisTime), resp); err != nil {
			r.check(false, "serial ProcessPayload of block %d: %v", i+1, err)
			return picked
		}
	}
	serialSnap, err := serial.Snapshot()
	r.check(err == nil && bytes.Equal(serialSnap, snap),
		"serial ProcessPayload snapshot (%d bytes) differs from the SyncWire one (%d bytes)", len(serialSnap), len(snap))
	return picked
}

// checkAddress checks one address's balance and complete paged UTXO walk at
// the tip against the ledger, output by output.
func checkAddress(r *run, can *canister.BitcoinCanister, l *ledger, addr string, script []byte, tip int64) {
	want := l.viewAt(script, tip)
	bal, err := can.GetBalance(ic.NewCallContext(ic.KindQuery, genesisTime), canister.GetBalanceArgs{Address: addr})
	r.check(err == nil && bal == want.value, "get_balance(%s) = %d (%v), ledger %d", addr, bal, err, want.value)
	var got addrView
	var page utxo.PageToken
	for {
		res, err := can.GetUTXOs(ic.NewCallContext(ic.KindQuery, genesisTime), canister.GetUTXOsArgs{Address: addr, Page: page})
		if err != nil {
			r.check(false, "get_utxos(%s): %v", addr, err)
			return
		}
		for _, u := range res.UTXOs {
			o, ok := l.outs[u.OutPoint]
			r.check(ok && o.liveAt(tip) && o.value == u.Value && o.height == u.Height && o.script == string(script),
				"get_utxos(%s) returned %s (value %d, height %d) the ledger does not hold unspent", addr, u.OutPoint, u.Value, u.Height)
			got.add(u.OutPoint, u.Value)
		}
		if res.NextPage == nil {
			break
		}
		page = res.NextPage
	}
	r.check(got == want, "get_utxos(%s) walk: %d outputs worth %d, ledger %d worth %d (or repeats)",
		addr, got.count, got.value, want.count, want.value)
}

// counterParity reads the canister's own payload and block counters.
func counterParity(reg *obs.Registry) (payloads, blocks uint64) {
	for _, c := range reg.Snapshot().Counters {
		switch c.Name {
		case "canister_payloads_total":
			payloads = c.Value
		case "canister_blocks_ingested_total":
			blocks = c.Value
		}
	}
	return payloads, blocks
}

// methodInstructions sums the canisters' own canister_method_instructions_total
// over every method: the instructions their Query and Update dispatch metered.
func methodInstructions(cans []*canister.BitcoinCanister) uint64 {
	var n uint64
	for _, c := range cans {
		for _, f := range c.Metrics().Snapshot().Families {
			if f.Name == "canister_method_instructions_total" {
				for _, v := range f.Values {
					n += v.Count
				}
			}
		}
	}
	return n
}
