package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"icbtc/internal/btc"
	"icbtc/internal/btcnode"
	"icbtc/internal/canister"
	"icbtc/internal/core"
	"icbtc/internal/ic"
	"icbtc/internal/queryfleet"
)

// liveShape sizes the live workload.
type liveShape struct {
	subnet         int           // IC replicas (3f+1)
	bitcoinNodes   int           // honest Bitcoin nodes
	replicas       int           // query-fleet replicas
	queryClients   int           // closed-loop certified-query clients
	queryThink     time.Duration // virtual pause between a client's answer and its next query
	replThink      time.Duration // same, for the replicated get_balance client
	blockEvery     time.Duration // least virtual time between mined blocks
	tick           time.Duration // virtual step between stage polls and replica catch-up
	rounds         int           // blocks in the small instance (time-bound otherwise)
	minRounds      int           // blocks a time-bound run mines at least: enough for a tail
	snapAt         int           // blocks mined when the canister's state is kept for the upgrade
	upgrades       int           // Snapshot+RestoreSnapshot samples of that state per batch
	upgradeBatches int           // batches of those samples, 100 ms apart
	setups         int
}

func liveSize(small bool) liveShape {
	sh := liveShape{
		subnet: 4, bitcoinNodes: 4, replicas: 2, queryClients: 2,
		queryThink: time.Second, replThink: 3 * time.Second,
		blockEvery: 6 * time.Second, tick: 100 * time.Millisecond, minRounds: 40, snapAt: 40, upgrades: 4, upgradeBatches: 40, setups: 15,
	}
	if small {
		sh.rounds, sh.minRounds, sh.snapAt, sh.upgradeBatches, sh.setups = 3, 0, 3, 1, 1
	}
	return sh
}

const walletID ic.CanisterID = "wallet"

// blockTrace is one mined block's path to its first certified answer, in
// virtual time: mined (t0), held by an adapter (t1), held by the canister
// (t2), served by every fleet replica (t3), first certified answer whose
// bound tip reaches the block (t4).
type blockTrace struct {
	height             int64
	hash               btc.Hash
	t0, t1, t2, t3, t4 time.Time
}

// liveAnswer is one certified get_balance answer kept for the ledger check.
type liveAnswer struct {
	addr  int
	data  int64 // height of the last block the serving state held
	value int64
}

// dataRouter routes the subnet's queries to the fleet and notes, per
// caller, the height of the last block the serving state held. The envelope
// binds the chain tip, which counts headers whose blocks have not arrived,
// so only this height says which blocks an answer reflects.
type dataRouter struct {
	lw   *liveWorld
	data map[string]int64
}

func (d *dataRouter) RouteQuery(method string, arg any, caller string, now time.Time) ic.RoutedQuery {
	s0 := d.lw.fleet.Stats()
	rq := d.lw.fleet.RouteQuery(method, arg, caller, now)
	// A cache hit hands back the stored answer with the instructions its
	// execution once cost; only an executed query meters any.
	if s1 := d.lw.fleet.Stats(); s1.Served+s1.Forwarded > s0.Served+s0.Forwarded {
		d.lw.instr += rq.Instructions
	}
	if rq.Forwarded {
		d.data[caller] = d.lw.integ.Canister.AvailableHeight()
	} else {
		d.data[caller] = d.lw.fleetData()
	}
	return rq
}

// liveWorld is the core integration with a certified query fleet routed as
// the subnet's query router, a wallet canister, and the clients' state.
type liveWorld struct {
	sh     liveShape
	integ  *core.Integration
	fleet  *queryfleet.Fleet
	router *dataRouter
	miner  *btcnode.Miner
	rng    *rand.Rand
	addrs  [3]string // miner, wallet, payee
	script [3][]byte

	stopped  bool
	inflight int
	answered int64
	failed   int64
	instr    uint64
	errs     []string

	certQueries, replCalls, sends int64
	aheadTip                      int64 // answers whose bound tip is past their last block
	verifyMs                      samples
	latMs                         samples // virtual latency of every answered request
	tracing                       bool
	answers                       []liveAnswer
	tamperSource                  *ic.Result

	cur    *blockTrace
	blocks []*blockTrace

	// The wallet pays again only once its previous payment is confirmed in
	// a block the canister holds, so its coins include that payment's change.
	sendBusy bool
	sendTx   btc.Hash           // the payment awaiting confirmation
	paid     map[btc.Hash]int64 // amount of every payment the wallet reported
	minedAt  map[btc.Hash]int64 // height of the block that mined each transaction
}

const (
	addrMiner = iota
	addrWallet
	addrPayee
)

// newLive builds the world, funds the wallet and syncs the canister, so the
// clients never meet an unsynced canister.
func newLive(seed int64, sh liveShape) (*liveWorld, error) {
	cfg := ic.DefaultConfig()
	cfg.N = sh.subnet
	integ, err := core.New(core.Options{Seed: seed, Subnet: &cfg, BitcoinNodes: sh.bitcoinNodes})
	if err != nil {
		return nil, err
	}
	lw := &liveWorld{sh: sh, integ: integ, rng: rand.New(rand.NewSource(seed)), paid: map[btc.Hash]int64{}, minedAt: map[btc.Hash]int64{}}
	integ.InstallCanister(walletID, &core.WalletCanister{BitcoinID: core.BitcoinCanisterID, Network: btc.Regtest, FeeSatoshi: 1000})
	integ.Start()
	integ.RunFor(5 * time.Second)
	if _, err := integ.MineBlocks(3); err != nil {
		return nil, err
	}
	wallet, err := core.WalletAddress(integ, btc.Regtest)
	if err != nil {
		return nil, err
	}
	var h [20]byte
	lw.rng.Read(h[:])
	payee := btc.NewP2PKHAddress(h, btc.Regtest)
	for i, a := range []btc.Address{integ.MinerAddress(), wallet, payee} {
		lw.addrs[i], lw.script[i] = a.String(), btc.PayToAddrScript(a)
	}
	if _, err := core.FundAddress(integ, lw.addrs[addrWallet], 40*100_000_000); err != nil {
		return nil, fmt.Errorf("funding the wallet: %w", err)
	}
	if err := integ.AwaitCanisterHeight(integ.Bitcoin.Nodes[0].Height(), 3*time.Minute); err != nil {
		return nil, err
	}
	lw.miner = btcnode.NewMinerWithKey(integ.Bitcoin.Nodes[0], integ.MinerKey())
	return lw, nil
}

// startFleet hydrates the certified fleet off the synced canister and
// routes the subnet's queries through it. Replicas apply frames only when
// the benchmark catches them up, once a tick, so virtual time alone decides
// what they serve.
func (lw *liveWorld) startFleet(sign queryfleet.SignFunc) error {
	fleet, err := queryfleet.New(lw.integ.Canister, queryfleet.Config{
		Replicas:     lw.sh.replicas,
		MaxLagBlocks: queryfleet.DefaultConfig().MaxLagBlocks,
		StalePolicy:  queryfleet.StaleForward,
		Coalesce:     true,
		CacheEntries: 256,
		Sign:         sign,
	})
	if err != nil {
		return err
	}
	lw.fleet = fleet
	lw.router = &dataRouter{lw: lw, data: map[string]int64{}}
	lw.integ.Subnet.SetQueryRouter(core.BitcoinCanisterID, lw.router)
	// The frame that carries a block marks the instant the canister holds it.
	lw.integ.Canister.SetStreamSink(func(fr *canister.Frame) {
		if b := lw.cur; b != nil && b.t2.IsZero() && lw.integ.Canister.AvailableHeight() >= b.height {
			b.t2 = lw.integ.Now()
		}
		fleet.Feed(fr)
	})
	return nil
}

func (lw *liveWorld) fail(format string, args ...any) {
	lw.failed++
	if len(lw.errs) < 3 {
		lw.errs = append(lw.errs, fmt.Sprintf(format, args...))
	}
}

// verify checks a certified answer's signature, timing the check.
func (lw *liveWorld) verify(check func() bool) bool {
	if !lw.tracing {
		return check()
	}
	t0 := time.Now()
	ok := check()
	lw.verifyMs = append(lw.verifyMs, ms(time.Since(t0)))
	return ok
}

// queryLoop is one certified-query client watching the payee's balance.
func (lw *liveWorld) queryLoop(c, n int) {
	if lw.stopped {
		return
	}
	a := addrPayee
	lw.inflight++
	lw.certQueries++
	caller := fmt.Sprintf("client-%d", c)
	lw.integ.Subnet.Query(core.BitcoinCanisterID, "get_balance", canister.GetBalanceArgs{Address: lw.addrs[a]}, caller, func(res ic.Result) {
		lw.inflight--
		data := lw.router.data[caller]
		lw.answered++
		lw.latMs = append(lw.latMs, ms(res.Latency))
		switch {
		case res.Err != nil:
			lw.fail("certified get_balance: %v", res.Err)
		case !lw.verify(func() bool { return lw.integ.Subnet.VerifyCertifiedQuery("get_balance", res) }):
			lw.fail("certified get_balance answer at tip %d does not verify", res.CertTipHeight)
		default:
			v, _ := res.Value.(int64)
			lw.answers = append(lw.answers, liveAnswer{addr: a, data: data, value: v})
			if res.CertTipHeight > data {
				lw.aheadTip++
			}
			if lw.tamperSource == nil {
				r := res
				lw.tamperSource = &r
			}
			if b := lw.cur; b != nil && b.t4.IsZero() && !b.t3.IsZero() && data >= b.height {
				b.t4 = lw.integ.Now()
			}
		}
		lw.integ.Sched.After(lw.sh.queryThink, func() { lw.queryLoop(c, n+1) })
	})
}

// replLoop is the replicated get_balance client.
func (lw *liveWorld) replLoop(n int) {
	if lw.stopped {
		return
	}
	a := n % len(lw.addrs)
	lw.inflight++
	lw.replCalls++
	lw.integ.Subnet.SubmitUpdate(core.BitcoinCanisterID, "get_balance", canister.GetBalanceArgs{Address: lw.addrs[a]}, "client", func(res ic.Result) {
		lw.inflight--
		lw.answered++
		lw.latMs = append(lw.latMs, ms(res.Latency))
		lw.instr += res.Instructions
		switch {
		case res.Err != nil:
			lw.fail("replicated get_balance: %v", res.Err)
		case !lw.verify(func() bool { return lw.integ.Subnet.VerifyCertified(res.Value, res.Err, res.Signature) }):
			lw.fail("replicated get_balance answer does not verify")
		}
		lw.integ.Sched.After(lw.sh.replThink, func() { lw.replLoop(n + 1) })
	})
}

// send asks the wallet canister to pay the payee: threshold-ECDSA signing,
// send_transaction, the adapter and the Bitcoin mempool follow.
func (lw *liveWorld) send(onSent func(*core.SendResult)) {
	amount := 10_000 + lw.rng.Int63n(90_000)
	lw.inflight++
	lw.sends++
	lw.sendBusy = true
	lw.integ.Subnet.SubmitUpdate(walletID, "send", core.SendArgs{To: lw.addrs[addrPayee], Amount: amount}, "client", func(res ic.Result) {
		lw.inflight--
		lw.answered++
		lw.latMs = append(lw.latMs, ms(res.Latency))
		lw.instr += res.Instructions
		sr, _ := res.Value.(*core.SendResult)
		switch {
		case res.Err != nil || sr == nil:
			lw.fail("wallet send: %v", res.Err)
		case !lw.verify(func() bool { return lw.integ.Subnet.VerifyCertified(res.Value, res.Err, res.Signature) }):
			lw.fail("wallet send answer does not verify")
		default:
			lw.sendTx = sr.TxID
			lw.paid[sr.TxID] = amount
			if onSent != nil {
				onSent(sr)
			}
		}
	})
}

// round mines one block and runs virtual time until its first certified
// answer and the block interval has passed. The wallet pays whenever its
// previous payment is confirmed; the mined block takes every transaction in
// the mining node's mempool.
func (lw *liveWorld) round(onSent func(*core.SendResult)) error {
	node := lw.integ.Bitcoin.Nodes[0]
	blk, err := lw.miner.Mine(0)
	if err != nil {
		return err
	}
	b := &blockTrace{height: node.Height(), hash: blk.BlockHash(), t0: lw.integ.Now()}
	for _, tx := range blk.Transactions[1:] {
		lw.minedAt[tx.TxID()] = b.height
	}
	lw.cur = b
	for {
		// Replicas apply the frames published during the previous tick.
		if err := lw.fleet.CatchUpAll(); err != nil {
			return err
		}
		if !b.t2.IsZero() && b.t3.IsZero() && lw.fleetData() >= b.height {
			b.t3 = lw.integ.Now()
		}
		lw.integ.RunFor(lw.sh.tick)
		now := lw.integ.Now()
		if b.t1.IsZero() {
			for _, ad := range lw.integ.Adapters {
				if ad.HasBlock(b.hash) {
					b.t1 = now
					break
				}
			}
		}
		if h, ok := lw.minedAt[lw.sendTx]; ok && lw.sendBusy && lw.integ.Canister.AvailableHeight() >= h {
			lw.sendBusy, lw.sendTx = false, btc.Hash{}
		}
		if !lw.sendBusy && !b.t2.IsZero() {
			lw.send(onSent)
		}
		if !b.t4.IsZero() && now.Sub(b.t0) >= lw.sh.blockEvery {
			break
		}
		if now.Sub(b.t0) > 10*time.Minute {
			return fmt.Errorf("block %d: no certified answer within 10 virtual minutes (adapter %v, canister %v, fleet %v)",
				b.height, !b.t1.IsZero(), !b.t2.IsZero(), !b.t3.IsZero())
		}
	}
	lw.blocks = append(lw.blocks, b)
	lw.cur = nil
	return nil
}

// fleetData is the height of the last block every fleet replica holds.
func (lw *liveWorld) fleetData() int64 {
	h := int64(1 << 62)
	for i := 0; i < lw.fleet.Replicas(); i++ {
		h = min(h, lw.fleet.Replica(i).Canister().AvailableHeight())
	}
	return h
}

// drain stops the clients and lets every request in flight be answered.
func (lw *liveWorld) drain() error {
	lw.stopped = true
	for deadline := lw.integ.Now().Add(5 * time.Minute); lw.inflight > 0; {
		if err := lw.fleet.CatchUpAll(); err != nil {
			return err
		}
		lw.integ.RunFor(lw.sh.tick)
		if lw.integ.Now().After(deadline) {
			return fmt.Errorf("%d requests unanswered", lw.inflight)
		}
	}
	return nil
}

func runLive(o options) (*run, error) {
	sh := liveSize(o.small)
	r := &run{}
	var lw *liveWorld
	var setups samples
	for i := 0; i < sh.setups; i++ {
		lw = nil
		runtime.GC()
		t := time.Now()
		var err error
		if lw, err = newLive(o.seed, sh); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	r.set("setup_s", "s", setups.median())

	committee := lw.integ.Subnet.Committee()
	var schnorrMs, ecdsaMs samples
	var schnorrSigns int64
	certify := queryfleet.CommitteeSigner(committee)
	sign := func(digest []byte) ([]byte, error) {
		schnorrSigns++
		if !o.trace {
			return certify(digest)
		}
		t0 := time.Now()
		sig, err := certify(digest)
		schnorrMs = append(schnorrMs, ms(time.Since(t0)))
		return sig, err
	}
	if err := lw.startFleet(sign); err != nil {
		return nil, err
	}
	defer lw.fleet.Close()
	var onSent func(*core.SendResult)
	if o.trace {
		lw.tracing = true
		r.spans = newTracer()
		// Time the committee's ECDSA signing on the wallet's own sighashes.
		onSent = func(sr *core.SendResult) {
			tx, err := btc.ParseTransaction(sr.RawTx)
			if err != nil {
				r.check(false, "wallet tx does not parse: %v", err)
				return
			}
			for i := range tx.Inputs {
				digest, err := btc.SignatureHash(tx, i, lw.script[addrWallet])
				if err != nil {
					r.check(false, "wallet sighash: %v", err)
					return
				}
				t0 := time.Now()
				_, err = committee.Sign(digest[:])
				ecdsaMs = append(ecdsaMs, ms(time.Since(t0)))
				r.check(err == nil, "threshold ECDSA signing: %v", err)
			}
		}
	}

	can := lw.integ.Canister
	payloads0, blocks0 := counterParity(can.Metrics())
	height0 := can.AvailableHeight()
	adReq0, adStored0 := adapterFetches(lw)
	lw.integ.Subnet.ResetBlockMetrics()
	stats0 := lw.fleet.Stats()
	for c := 0; c < sh.queryClients; c++ {
		lw.queryLoop(c, 0)
	}
	lw.replLoop(0)
	// The state kept for the upgrade and the heap is the one after snapAt
	// blocks, so its size does not depend on how many blocks the run's
	// length allows.
	var kept []byte
	rt0 := readRuntime()
	c0, t0 := cpuTime(), time.Now()
	for i := 0; ; i++ {
		if sh.rounds > 0 && i == sh.rounds || sh.rounds == 0 && i >= max(1, sh.minRounds) && time.Since(t0).Seconds() >= o.seconds {
			break
		}
		if err := lw.round(onSent); err != nil {
			return nil, err
		}
		if i+1 == sh.snapAt {
			var err error
			if kept, err = can.Snapshot(); err != nil {
				return nil, fmt.Errorf("snapshot after %d blocks: %w", sh.snapAt, err)
			}
		}
	}
	if err := lw.drain(); err != nil {
		return nil, err
	}
	cpu, wall := cpuTime()-c0, time.Since(t0)
	rt := rt0.since()
	stats := lw.fleet.Stats()
	r.attempted, r.failed = lw.answered, lw.failed
	for _, e := range lw.errs {
		r.note("live request failed: %s", e)
	}
	r.note("live: %d blocks in %.1fs (%.0f virtual s); %d certified queries, %d replicated calls, %d wallet sends; %d frames, %d fleet certifications; %.1f answers per cpu-s",
		len(lw.blocks), wall.Seconds(), lw.integ.Now().Sub(lw.blocks[0].t0).Seconds(), lw.certQueries, lw.replCalls, lw.sends,
		stats.Frames-stats0.Frames, stats.Certified-stats0.Certified, float64(lw.answered)/cpu.Seconds())
	r.note("live: %d of %d certified answers bind a tip height past the last block their state holds", lw.aheadTip, len(lw.answers))

	var fresh, fetch, payload, apply, answer samples
	for _, b := range lw.blocks {
		stages := []time.Duration{b.t1.Sub(b.t0), b.t2.Sub(b.t1), b.t3.Sub(b.t2), b.t4.Sub(b.t3)}
		total := b.t4.Sub(b.t0)
		// The stages sum to the freshness by construction; the check is that
		// the block passed the four points in order.
		for _, s := range stages {
			r.check(s >= 0, "block %d: a waterfall stage is negative: %v", b.height, stages)
		}
		fresh = append(fresh, total.Seconds())
		fetch = append(fetch, stages[0].Seconds())
		payload = append(payload, stages[1].Seconds())
		apply = append(apply, stages[2].Seconds())
		answer = append(answer, stages[3].Seconds())
		if tr := r.spans; tr != nil {
			epoch := lw.blocks[0].t0
			at := func(t time.Time) time.Duration { return t.Sub(epoch) }
			id := tr.add("live.block", b.height, 0, at(b.t0), at(b.t4))
			tr.add("adapter.fetch", b.height, id, at(b.t0), at(b.t1))
			tr.add("ic.payload", b.height, id, at(b.t1), at(b.t2))
			tr.add("queryfleet.apply", b.height, id, at(b.t2), at(b.t3))
			tr.add("queryfleet.answer", b.height, id, at(b.t3), at(b.t4))
		}
	}
	chain := checkLive(r, lw)

	// The upgrade of the kept state. A 0.1 ms sample follows the host's load
	// from one 50 ms window to the next, so the samples are taken in
	// batches 100 ms apart, each after one untimed cycle, and their median
	// spans seconds.
	if kept == nil {
		return nil, fmt.Errorf("the run mined fewer than %d blocks", sh.snapAt)
	}
	state, err := canister.RestoreSnapshot(kept)
	if err != nil {
		return nil, fmt.Errorf("restoring the kept state: %w", err)
	}
	var (
		up, warm upgradeTimes
		final    *canister.BitcoinCanister
		snap     []byte
	)
	for b := 0; b < sh.upgradeBatches; b++ {
		time.Sleep(100 * time.Millisecond)
		final = nil
		if _, _, err = warm.cycles(nil, state, 1, false, 0); err == nil {
			final, snap, err = up.cycles(r.spans, state, sh.upgrades, false, int64(b))
		}
		if err != nil {
			return nil, err
		}
		r.check(bytes.Equal(snap, kept), "the restored canister's snapshot differs from the one it was restored from")
	}
	state = nil
	stable := final.StableUTXOCount()

	if o.trace {
		wire := make([][]byte, len(chain))
		for i, b := range chain {
			wire[i] = b.Bytes()
		}
		mined := len(lw.blocks)
		if err := replayLayers(r.spans, wire, lw.blocks[0].height-1, lw.integ.Now()); err != nil {
			return nil, err
		}
		setBlockLayers(r, r.spans, mined)
		up.setState(r, len(snap), stable)
		rt.set(r, lw.answered, cpu)
		readProbe(r, can, lw.addrs[:], lw.integ.Now(), 20)
		n := float64(lw.answered)
		r.set("queryfleet.cache_hits_per_op", "ratio", float64(stats.CacheHits-stats0.CacheHits)/n)
		r.set("queryfleet.coalesced_per_op", "ratio", float64(stats.Coalesced-stats0.Coalesced)/n)
		// The subnet Schnorr-certifies every replicated reply, wallet sends
		// included; a send adds one ECDSA signature per input.
		signatures := schnorrSigns + lw.replCalls + lw.sends + int64(len(ecdsaMs))
		r.set("tecdsa.signatures_per_op", "count", float64(signatures)/n)
		adReq, adStored := adapterFetches(lw)
		r.set("adapter.requests_per_block", "count", float64(adReq-adReq0)/float64(mined))
		rounds := lw.integ.Subnet.BlockMetricsLog()
		var instr uint64
		var delivered int
		for _, m := range rounds {
			instr += m.Instructions
			delivered += m.Payloads
		}
		payloads1, blocks1 := counterParity(can.Metrics())
		r.set("canister.payloads_counted_ratio", "ratio", float64(payloads1-payloads0)/float64(delivered))
		r.set("canister.blocks_counted_ratio", "ratio", float64(blocks1-blocks0)/float64(can.AvailableHeight()-height0))
		r.note("waterfall p50: adapter.fetch %.2f s, ic.payload %.2f s, queryfleet.apply %.2f s, queryfleet.answer %.2f s",
			fetch.median(), payload.median(), apply.median(), answer.median())
		r.note("adapter: %d blocks stored of %d requests; ic: %.0f instructions per round",
			adStored-adStored0, adReq-adReq0, float64(instr)/float64(len(rounds)))
		r.note("p50: tecdsa Schnorr certification %.1f ms, tecdsa ECDSA signature %.1f ms, secp256k1 verification %.2f ms",
			schnorrMs.median(), ecdsaMs.median(), lw.verifyMs.median())
		return r, nil
	}

	r.set("ops_per_cpu_s", "1/cpu-s", float64(lw.answered)/cpu.Seconds())
	r.set("op_ms_p50", "ms", lw.latMs.median())
	setTail(r, "op_ms_tail", "ms", lw.latMs, "answered requests (virtual time)")
	r.set("instr_per_op", "instructions", float64(lw.instr)/float64(lw.answered))
	r.set("upgrade_ms", "ms", up.total.median())
	r.set("fresh_s_p50", "s", fresh.median())
	r.set("fresh_s_tail", "s", fresh.quantile(freshTail))
	// The heap of the kept state alone: the live heap with a restored copy,
	// less the live heap without it.
	with := liveHeap()
	runtime.KeepAlive(final)
	final = nil
	r.set("heap_bytes_per_utxo", "bytes", float64(int64(with)-int64(liveHeap()))/float64(stable))
	return r, nil
}

// adapterFetches sums the adapters' block requests (retries included) and
// the blocks they stored.
func adapterFetches(lw *liveWorld) (requests, stored uint64) {
	for _, ad := range lw.integ.Adapters {
		for _, c := range ad.Metrics().Snapshot().Counters {
			switch c.Name {
			case "adapter_block_requests_total":
				requests += c.Value
			case "adapter_blocks_stored_total":
				stored += c.Value
			}
		}
	}
	return requests, stored
}

// checkLive checks the run against a ledger built by walking the mined
// chain: every certified balance at the tip it was bound to, the final
// balances of the miner, the wallet and the payee, the payee's receipts,
// and that a tampered copy of a certified answer fails verification. It
// returns the mined chain from height 1.
func checkLive(r *run, lw *liveWorld) []*btc.Block {
	r.check(lw.failed == 0, "%d requests failed, first: %v", lw.failed, lw.errs)
	node := lw.integ.Bitcoin.Nodes[0]
	var path []btc.Hash
	for n := node.BestTip(); n != nil && n.Height > 0; n = n.Parent() {
		path = append(path, n.Hash)
	}
	l := newLedger()
	var chain []*btc.Block
	for i := len(path) - 1; i >= 0; i-- {
		b, ok := node.GetBlock(path[i])
		if !ok {
			r.check(false, "mined block %s missing from the mining node", path[i])
			return chain
		}
		l.apply(b, l.tip()+1)
		chain = append(chain, b)
	}
	for _, a := range lw.answers {
		want := l.viewAt(lw.script[a.addr], a.data).value
		r.check(a.value == want, "certified get_balance(%s) with blocks to %d = %d, ledger %d", lw.addrs[a.addr], a.data, a.value, want)
	}
	can := lw.integ.Canister
	tip := can.TipHeight()
	for i, addr := range lw.addrs {
		got, err := can.GetBalance(ic.NewCallContext(ic.KindQuery, lw.integ.Now()), canister.GetBalanceArgs{Address: addr})
		want := l.viewAt(lw.script[i], tip).value
		r.check(err == nil && got == want, "final get_balance(%s) at tip %d = %d (%v), ledger %d", addr, tip, got, err, want)
	}
	// The payee holds exactly the payments that were mined.
	var mined int64
	for txid, amount := range lw.paid {
		if _, ok := l.outs[btc.OutPoint{TxID: txid}]; ok {
			mined += amount
		}
	}
	paid := l.viewAt(lw.script[addrPayee], l.tip()).value
	r.check(len(lw.paid) > 0, "the wallet made no payment")
	r.check(paid == mined, "payee holds %d, the wallet's mined payments sum to %d", paid, mined)

	if src := lw.tamperSource; src == nil {
		r.check(false, "no certified answer to tamper with")
	} else {
		tampered := *src
		v, _ := tampered.Value.(int64)
		tampered.Value = v + 1
		r.check(!lw.integ.Subnet.VerifyCertifiedQuery("get_balance", tampered), "a tampered certified answer verifies")
	}
	return chain
}
