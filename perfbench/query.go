package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"icbtc/internal/adapter"
	"icbtc/internal/btc"
	"icbtc/internal/canister"
	"icbtc/internal/experiments"
	"icbtc/internal/ic"
	"icbtc/internal/ingest"
	"icbtc/internal/queryfleet"
	"icbtc/internal/utxo"
)

// queryShape sizes the query workload.
type queryShape struct {
	scale       int // divisor of the paper's 1000-address Fig 7 population
	delta       int64
	unstableTxs int // transactions per unstable block
	feedTxs     int // transactions per block fed during the measured phase
	feedBlocks  int // blocks generated for feeding; feeding stops when used up
	feedEvery   int // queries (of client 0) between fed blocks
	replicas    int
	cache       int // hot-cache entries
	upgrades    int // Snapshot+RestoreSnapshot samples of the final state
	setups      int
}

func querySize(small bool) queryShape {
	if small {
		return queryShape{scale: 40, delta: 12, unstableTxs: 20, feedTxs: 10, feedBlocks: 8, feedEvery: 50, replicas: 2, cache: 512, upgrades: 1, setups: 1}
	}
	return queryShape{scale: 2, delta: 144, unstableTxs: 60, feedTxs: 60, feedBlocks: 600, feedEvery: 2000, replicas: 2, cache: 4096, upgrades: 5, setups: 3}
}

// The query mix.
const (
	opBalance = iota
	opUTXOs
	opUTXOsNext
	opFees
	opHeaders
	numOps
)

var opNames = [numOps]string{"get_balance", "get_utxos", "get_utxos_next", "get_current_fee_percentiles", "get_block_headers"}

// The mix and skew of the repository's fleet-load generator
// (experiments.buildFleetLoadSchedule, DefaultFleetLoadConfig): every 50th
// client operation is a slow client's full scan, here a walk through every
// page of an address holding more than one page; of the rest, six in ten
// are a get_utxos page, nine in ten of the others a get_balance, and the
// remainder an argument-free chain-state query. The generator has only fee
// percentiles there; get_block_headers takes half of that share. Addresses
// are picked by Zipf(s=1.5, v=1) popularity.
const (
	walkEvery = 50
	zipfS     = 1.5
	zipfV     = 1
)

const headerRange = 10

// queryWorld is the query workload's generated inputs and the serving stack.
type queryWorld struct {
	sh     queryShape
	ch     *genChain
	pop    *population
	big    []int // population indices holding more than one page of UTXOs
	ranks  []int // Zipf rank → population index
	synced int   // blocks synced before the measured phase
	auth   *canister.BitcoinCanister
	fleet  *queryfleet.Fleet
	// traceMu lets a traced run's sampled query run alone.
	traceMu sync.RWMutex

	// Freshness: the height of the last fed block until an answer first
	// reflects it (0 after), and when it was fed, in nanoseconds since
	// epoch. The first answer at or above that height records a sample.
	epoch   time.Time
	freshH  atomic.Int64
	freshAt atomic.Int64
	freshMu sync.Mutex
	fresh   samples
}

// genQuery generates the Fig 7 population's history (517/159/113/211 of
// every 1000 addresses hold <50, 50-199, 200-999 and 1000+ UTXOs), δ
// unstable blocks that pay and spend population outputs on top of it, and
// the blocks fed while queries run, which only pay.
func genQuery(seed int64, sh queryShape) (*queryWorld, error) {
	fig7, pop := fig7Population(seed, sh.scale)
	w := &queryWorld{sh: sh, pop: pop}
	remaining := make([]int, len(fig7.Addresses))
	for i, a := range fig7.Addresses {
		remaining[i] = a.Count
		if a.Count > canister.DefaultConfig(btc.Regtest).PageLimit {
			w.big = append(w.big, i)
		}
	}
	// Walks, like the ranking, visit the larger addresses first.
	sort.SliceStable(w.big, func(i, j int) bool { return fig7.Addresses[w.big[i]].Count > fig7.Addresses[w.big[j]].Count })
	w.ranks = rankAddresses(fig7)
	rng := rand.New(rand.NewSource(seed))
	g := newChainGen(seed)
	payee := newPayees(rng, pop)
	pay := func(txs int) []experiments.TxSpec {
		specs := make([]experiments.TxSpec, txs)
		for t := range specs {
			specs[t] = experiments.TxSpec{Outputs: []btc.TxOut{
				{Value: 546 + rng.Int63n(100_000), PkScript: pop.scripts[payee.next()]},
				{Value: 546 + rng.Int63n(100_000), PkScript: pop.scripts[payee.next()]},
			}}
		}
		return specs
	}

	// Stable history: transactions of up to 20 outputs to one address,
	// 100 transactions a block, until every address holds its count.
	order := rng.Perm(len(remaining))
	for left := true; left; {
		left = false
		var specs []experiments.TxSpec
		for _, i := range order {
			if remaining[i] == 0 {
				continue
			}
			left = true
			n := min(remaining[i], 20)
			remaining[i] -= n
			outs := make([]btc.TxOut, n)
			for k := range outs {
				outs[k] = btc.TxOut{Value: 546 + rng.Int63n(100_000), PkScript: w.pop.scripts[i]}
			}
			specs = append(specs, experiments.TxSpec{Outputs: outs})
			if len(specs) == 100 {
				if _, err := g.next(specs); err != nil {
					return nil, err
				}
				specs = nil
			}
		}
		if len(specs) > 0 {
			if _, err := g.next(specs); err != nil {
				return nil, err
			}
		}
	}
	// δ unstable blocks whose transactions also spend earlier outputs.
	for b := int64(0); b < sh.delta; b++ {
		specs := pay(sh.unstableTxs)
		for t := range specs {
			specs[t].Inputs = 1
		}
		if _, err := g.next(specs); err != nil {
			return nil, err
		}
	}
	w.synced = len(g.c.wire)
	for b := 0; b < sh.feedBlocks; b++ {
		if _, err := g.next(pay(sh.feedTxs)); err != nil {
			return nil, err
		}
	}
	w.ch = g.c
	return w, nil
}

// rankAddresses orders the population for Zipf popularity. The size class
// (<50, 50-199, 200-999, 1000+ UTXOs) of each rank follows one fixed pattern
// that keeps every prefix of the ranking in the classes' population shares,
// and within a class the larger addresses come first. So the hottest
// addresses are equally heavy under every seed, and the instructions a query
// costs do not depend on which seed drew them.
func rankAddresses(fig7 *experiments.AddressPopulation) []int {
	classOf := func(count int) int {
		switch {
		case count < 50:
			return 0
		case count < 200:
			return 1
		case count < 1000:
			return 2
		}
		return 3
	}
	var classes [4][]int
	for i, a := range fig7.Addresses {
		c := classOf(a.Count)
		classes[c] = append(classes[c], i)
	}
	for _, c := range classes {
		sort.SliceStable(c, func(i, j int) bool { return fig7.Addresses[c[i]].Count > fig7.Addresses[c[j]].Count })
	}
	var taken [4]int
	ranks := make([]int, 0, len(fig7.Addresses))
	for len(ranks) < len(fig7.Addresses) {
		// The class furthest below its share of the ranks so far.
		best := -1
		for c := range classes {
			if taken[c] == len(classes[c]) {
				continue
			}
			if best < 0 || float64(taken[c])*float64(len(classes[best])) < float64(taken[best])*float64(len(classes[c])) {
				best = c
			}
		}
		ranks = append(ranks, classes[best][taken[best]])
		taken[best]++
	}
	return ranks
}

// build syncs the authority to the generated history and hydrates the fleet.
func (w *queryWorld) build() error {
	cfg := canister.DefaultConfig(btc.Regtest)
	cfg.StabilityThreshold = w.sh.delta
	w.auth = canister.New(cfg)
	for p := 0; p < w.synced; p += 16 {
		batch := w.ch.wire[p:min(p+16, w.synced)]
		st, err := w.auth.SyncWire(ic.NewCallContext(ic.KindUpdate, genesisTime), batch, ingest.Config{Workers: workers()})
		if err != nil {
			return fmt.Errorf("SyncWire: %w", err)
		}
		if st.Accepted != len(batch) {
			return fmt.Errorf("SyncWire accepted %d of %d blocks", st.Accepted, len(batch))
		}
	}
	fleet, err := queryfleet.New(w.auth, queryfleet.Config{
		Replicas:     w.sh.replicas,
		MaxLagBlocks: queryfleet.DefaultConfig().MaxLagBlocks,
		StalePolicy:  queryfleet.StaleForward,
		AutoApply:    true,
		Coalesce:     true,
		CacheEntries: w.sh.cache,
	})
	if err != nil {
		return err
	}
	w.fleet = fleet
	return nil
}

// canisters returns the authority and the replicas' canisters, whose
// registries meter every query the fleet executes: replicas serve, the
// authority answers the forwarded ones. Cache hits and coalesced followers
// execute nothing.
func (w *queryWorld) canisters() []*canister.BitcoinCanister {
	cans := []*canister.BitcoinCanister{w.auth}
	for i := 0; i < w.fleet.Replicas(); i++ {
		cans = append(cans, w.fleet.Replica(i).Canister())
	}
	return cans
}

// feed delivers the next generated block to the authority as one payload;
// the fleet's stream sink hands its frame to the replicas.
func (w *queryWorld) feed(height int) error {
	b, err := btc.ParseBlock(w.ch.wire[height-1])
	if err != nil {
		return err
	}
	resp := adapter.Response{Blocks: []adapter.BlockWithHeader{{Block: b, Header: b.Header}}}
	w.freshAt.Store(int64(time.Since(w.epoch)))
	w.freshH.Store(int64(height))
	return w.fleet.GuardAuthority(func() error {
		return w.auth.ProcessPayload(ic.NewCallContext(ic.KindUpdate, genesisTime), resp)
	})
}

// answered records a freshness sample when an answer at tip is the first to
// reflect the last fed block.
func (w *queryWorld) answered(tip int64) {
	h := w.freshH.Load()
	if h == 0 || tip < h || !w.freshH.CompareAndSwap(h, 0) {
		return
	}
	d := time.Since(w.epoch) - time.Duration(w.freshAt.Load())
	w.freshMu.Lock()
	w.fresh = append(w.fresh, d.Seconds())
	w.freshMu.Unlock()
}

// answer is one query outcome kept for checking after the measured phase.
type answer struct {
	op       uint8
	complete bool // a get_utxos answer that holds the whole address (walks, single pages)
	addr     int32
	tip      int64
	count    int
	balance  int64
	view     addrView
}

// client is one closed-loop load generator.
type client struct {
	id      int
	rng     *rand.Rand
	zipf    *rand.Zipf
	bigZipf *rand.Zipf

	lat     [numOps]samples
	answers []answer
	queries int64
	failed  int64
	utxos   int64
	errs    []string

	// traced run only
	tr              *tracer
	exec, execInstr [numOps]samples
	overhead        samples
	postFrame       samples
}

func runQuery(o options) (*run, error) {
	sh := querySize(o.small)
	r := &run{}
	var w *queryWorld
	var setups samples
	for i := 0; i < sh.setups; i++ {
		if w != nil {
			w.fleet.Close()
		}
		w = nil
		runtime.GC()
		t := time.Now()
		var err error
		if w, err = genQuery(o.seed, sh); err != nil {
			return nil, err
		}
		if err := w.build(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	// A deferred w.fleet.Close() would keep the fleet and its hot cache
	// reachable until the heap is measured; the closure reads w at return.
	defer func() {
		if w != nil {
			w.fleet.Close()
		}
	}()
	r.set("setup_s", "s", setups.median())

	var frameEnc, frameDec samples
	var tr *tracer
	if o.trace {
		tr = newTracer()
		r.spans = tr
		// Intercept frames at the stream sink to time their codec.
		w.auth.SetStreamSink(func(fr *canister.Frame) {
			w.fleet.Feed(fr)
			t0 := time.Now()
			raw := canister.EncodeFrame(fr)
			t1 := time.Now()
			_, err := canister.DecodeFrame(raw)
			t2 := time.Now()
			tr.add("canister.frame_encode", int64(fr.Seq), 0, t0.Sub(tr.t0), t1.Sub(tr.t0))
			tr.add("canister.frame_decode", int64(fr.Seq), 0, t1.Sub(tr.t0), t2.Sub(tr.t0))
			r.check(err == nil, "frame %d does not decode: %v", fr.Seq, err)
			frameEnc = append(frameEnc, us(t1.Sub(t0)))
			frameDec = append(frameDec, us(t2.Sub(t1)))
		})
	}

	clients := make([]*client, workers())
	for i := range clients {
		rng := rand.New(rand.NewSource(o.seed*1000 + int64(i)))
		clients[i] = &client{
			id:      i,
			tr:      tr,
			rng:     rng,
			zipf:    rand.NewZipf(rng, zipfS, zipfV, uint64(len(w.pop.addrs)-1)),
			bigZipf: rand.NewZipf(rng, zipfS, zipfV, uint64(len(w.big)-1)),
		}
	}
	stats0 := w.fleet.Stats()
	cans := w.canisters()
	instr0 := methodInstructions(cans)
	payloads0, blocks0 := counterParity(w.auth.Metrics())
	fed := w.synced
	var feedErr error
	var wg sync.WaitGroup
	w.epoch = time.Now()
	rt0 := readRuntime()
	c0, t0 := cpuTime(), time.Now()
	deadline := t0.Add(time.Duration(o.seconds * float64(time.Second)))
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for ops := 1; time.Now().Before(deadline); ops++ {
				c.op(w, ops, o.trace)
				if c.id == 0 && ops%w.sh.feedEvery == 0 && fed < len(w.ch.wire) && feedErr == nil {
					fed++
					feedErr = w.feed(fed)
				}
			}
		}(c)
	}
	wg.Wait()
	cpu, wall := cpuTime()-c0, time.Since(t0)
	rt := rt0.since()
	stats := w.fleet.Stats()
	instr := methodInstructions(cans) - instr0
	payloads1, blocks1 := counterParity(w.auth.Metrics())
	r.check(slices.Equal(cans, w.canisters()), "a replica was re-hydrated during the measured phase")
	if feedErr != nil {
		return nil, fmt.Errorf("feeding block %d: %w", fed, feedErr)
	}

	var all, tail samples
	var queries, failed int64
	var utxos int64
	var utxoQueries int
	for _, c := range clients {
		for op := range c.lat {
			all = append(all, c.lat[op]...)
		}
		queries += c.queries
		failed += c.failed
		utxos += c.utxos
		utxoQueries += len(c.lat[opUTXOs]) + len(c.lat[opUTXOsNext])
		for _, e := range c.errs {
			r.note("query failed: %s", e)
		}
	}
	r.attempted, r.failed = queries, failed
	fedBlocks := fed - w.synced
	r.note("query: %d queries in %.1fs by %d clients; %d blocks fed, %d first answered; %d stable UTXOs; cache hits %d, coalesced %d, forwarded %d; %.0f queries per cpu-s, p50 %.2f us",
		queries, wall.Seconds(), len(clients), fedBlocks, len(w.fresh), w.auth.StableUTXOCount(),
		stats.CacheHits-stats0.CacheHits, stats.Coalesced-stats0.Coalesced, stats.Forwarded-stats0.Forwarded,
		float64(queries)/cpu.Seconds(), all.median()*1e3)
	r.check(len(w.fresh) > 0, "no fed block reached an answer")
	checkQuery(r, w, clients)

	stable := w.auth.StableUTXOCount()
	if o.trace {
		for _, c := range clients {
			tail = append(tail, c.postFrame...)
		}
		n := float64(queries)
		for op := 0; op < numOps; op++ {
			var ex, in samples
			for _, c := range clients {
				ex = append(ex, c.exec[op]...)
				in = append(in, c.execInstr[op]...)
			}
			if op == opUTXOsNext {
				r.note("canister.exec_us_p50.%s %.1f us, ic.instr_per_query.%[1]s %.0f", opNames[op], ex.median(), in.mean())
				continue
			}
			r.set("canister.exec_us_p50."+opNames[op], "us", ex.median())
			r.set("ic.instr_per_query."+opNames[op], "instructions", in.mean())
		}
		r.set("utxo.utxos_per_query", "count", float64(utxos)/float64(max(1, utxoQueries)))
		r.set("queryfleet.cache_hits_per_op", "ratio", float64(stats.CacheHits-stats0.CacheHits)/n)
		r.set("queryfleet.coalesced_per_op", "ratio", float64(stats.Coalesced-stats0.Coalesced)/n)
		rt.set(r, queries, cpu)
		r.set("canister.payloads_counted_ratio", "ratio", float64(payloads1-payloads0)/float64(fedBlocks))
		r.set("canister.blocks_counted_ratio", "ratio", float64(blocks1-blocks0)/float64(fedBlocks))
		if err := replayLayers(tr, w.ch.wire[:fed], int64(w.synced), genesisTime); err != nil {
			return nil, err
		}
		setBlockLayers(r, tr, fedBlocks)
		// The query path signs nothing and has no adapter.
		r.set("tecdsa.signatures_per_op", "count", 0)
		r.set("adapter.requests_per_block", "count", 0)

		var over samples
		for _, c := range clients {
			over = append(over, c.overhead...)
		}
		r.note("queryfleet.route_overhead_us_p50 %.2f us; queryfleet.frame_apply_ms %.3f ms; canister.frame_encode_us %.1f, canister.frame_decode_us %.1f",
			over.median(), frameApplyMs(w.fleet), frameEnc.median(), frameDec.median())
		if p, v, ok := tail.tail(); ok {
			r.note("queryfleet.post_frame_op_ms_tail %.3f ms: p%g of %d queries issued while a replica lagged", v, p, len(tail))
		} else {
			r.note("queryfleet.post_frame_op_ms_tail %.3f ms: median of only %d queries issued while a replica lagged", tail.median(), len(tail))
		}
	} else {
		r.set("ops_per_cpu_s", "1/cpu-s", float64(queries)/cpu.Seconds())
		r.set("op_ms_p50", "ms", all.median())
		setTail(r, "op_ms_tail", "ms", all, "queries")
		r.set("instr_per_op", "instructions", float64(instr)/float64(queries))
		r.set("fresh_s_p50", "s", w.fresh.median())
		r.set("fresh_s_tail", "s", w.fresh.quantile(freshTail))
	}

	// What stays is the served state alone, the authority's and the
	// replicas' canisters. The inputs, the answers and the fleet with its
	// hot cache, whose content depends on timing, go first.
	auth := w.auth
	w.fleet.Close()
	auth.SetStreamSink(nil)
	w, clients, all, tail = nil, nil, nil, nil

	// The upgrade of the authority's final state.
	var up upgradeTimes
	final, snap, err := up.cycles(tr, auth, sh.upgrades, true, 0)
	if err != nil {
		return nil, err
	}
	again, err := final.Snapshot()
	r.check(err == nil && bytes.Equal(again, snap), "the authority's restored snapshot differs from the one it was restored from")
	final, again = nil, nil
	if o.trace {
		up.setState(r, len(snap), stable)
		return r, nil
	}
	r.set("upgrade_ms", "ms", up.total.median())
	snap = nil
	r.set("heap_bytes_per_utxo", "bytes", float64(liveHeap())/float64(stable))
	runtime.KeepAlive(cans)
	return r, nil
}

// frameApplyMs is the mean time a frame waited from distribution to being
// applied on a replica, from the fleet's own histogram.
func frameApplyMs(f *queryfleet.Fleet) float64 {
	for _, h := range f.Metrics().Snapshot().Histograms {
		if h.Name == "fleet_frame_apply_lag_ns" && h.Count > 0 {
			return float64(h.Sum) / float64(h.Count) / 1e6
		}
	}
	return 0
}

// route sends one query through the fleet and times it.
func (c *client) route(w *queryWorld, op int, arg any, trace bool) (ic.RoutedQuery, bool) {
	method := opNames[op]
	if op == opUTXOsNext {
		method = "get_utxos"
	}
	c.queries++
	// In the traced run every 16th query runs alone, so the fleet's
	// counters tell whether it executed, and is executed again directly on
	// the authority, whose state the replicas mirror, to split route from
	// execution.
	sampled := trace && c.queries%16 == 0
	var lagging bool
	var s0 queryfleet.Stats
	if trace {
		if sampled {
			w.traceMu.Lock()
			defer w.traceMu.Unlock()
			s0 = w.fleet.Stats()
		} else {
			w.traceMu.RLock()
			defer w.traceMu.RUnlock()
		}
		auth := w.fleet.AuthTipHeight()
		for i := 0; i < w.fleet.Replicas(); i++ {
			lagging = lagging || w.fleet.Replica(i).TipHeight() < auth
		}
	}
	t0 := time.Now()
	rq := w.fleet.RouteQuery(method, arg, "client", genesisTime)
	d := time.Since(t0)
	if rq.Err != nil {
		c.failed++
		if len(c.errs) < 3 {
			c.errs = append(c.errs, fmt.Sprintf("%s: %v", opNames[op], rq.Err))
		}
		return rq, false
	}
	c.lat[op] = append(c.lat[op], ms(d))
	w.answered(rq.TipHeight)
	if trace && lagging {
		c.postFrame = append(c.postFrame, ms(d))
	}
	if sampled {
		s1 := w.fleet.Stats()
		executed := s1.Served+s1.Forwarded > s0.Served+s0.Forwarded
		ctx := ic.NewCallContext(ic.KindQuery, genesisTime)
		var e0 time.Time
		var ex time.Duration
		_ = w.fleet.GuardAuthority(func() error {
			e0 = time.Now()
			_, err := w.auth.Query(ctx, method, arg)
			ex = time.Since(e0)
			return err
		})
		id := int64(c.id)<<40 | c.queries
		c.tr.add("queryfleet.route", id, 0, t0.Sub(c.tr.t0), t0.Add(d).Sub(c.tr.t0))
		c.tr.add("canister.exec", id, 0, e0.Sub(c.tr.t0), e0.Add(ex).Sub(c.tr.t0))
		c.exec[op] = append(c.exec[op], us(ex))
		c.execInstr[op] = append(c.execInstr[op], float64(ctx.Meter.Total()))
		// A cache hit executes nothing: all of its time is the route's.
		if executed {
			c.overhead = append(c.overhead, us(d)-us(ex))
		} else {
			c.overhead = append(c.overhead, us(d))
		}
	}
	return rq, true
}

// op runs the client's n-th operation.
func (c *client) op(w *queryWorld, n int, trace bool) {
	op := opFees
	switch {
	case n%walkEvery == 0:
		c.walk(w, w.big[c.bigZipf.Uint64()], true, trace)
		return
	case c.rng.Intn(10) < 6:
		op = opUTXOs
	case c.rng.Intn(10) < 9:
		op = opBalance
	case c.rng.Intn(2) == 0:
		op = opHeaders
	}
	switch op {
	case opBalance:
		a := w.ranks[c.zipf.Uint64()]
		rq, ok := c.route(w, opBalance, canister.GetBalanceArgs{Address: w.pop.addrs[a]}, trace)
		if ok {
			bal, _ := rq.Value.(int64)
			c.answers = append(c.answers, answer{op: opBalance, addr: int32(a), tip: rq.TipHeight, balance: bal})
		}
	case opUTXOs:
		c.walk(w, w.ranks[c.zipf.Uint64()], false, trace)
	case opFees:
		rq, ok := c.route(w, opFees, nil, trace)
		if ok {
			p, _ := rq.Value.([]int64)
			for i := 1; i < len(p); i++ {
				if p[i] < p[i-1] {
					c.fail(fmt.Sprintf("fee percentiles decrease at %d: %v", i, p))
					break
				}
			}
		}
	case opHeaders:
		start := 1 + c.rng.Int63n(int64(w.synced-headerRange))
		rq, ok := c.route(w, opHeaders, canister.GetBlockHeadersArgs{StartHeight: start, EndHeight: start + headerRange - 1}, trace)
		if ok {
			res, _ := rq.Value.(*canister.GetBlockHeadersResult)
			if res == nil || len(res.Headers) != headerRange {
				c.fail(fmt.Sprintf("get_block_headers [%d,%d] returned %v", start, start+headerRange-1, res))
				return
			}
			for i := range res.Headers {
				if string(res.Headers[i].Bytes()) != string(w.ch.ledger.headers[start+int64(i)]) {
					c.fail(fmt.Sprintf("get_block_headers: header at height %d differs from the generated one", start+int64(i)))
					return
				}
			}
		}
	}
}

// walk fetches an address's first page and, for a walk, every continuation.
func (c *client) walk(w *queryWorld, a int, walk bool, trace bool) {
	args := canister.GetUTXOsArgs{Address: w.pop.addrs[a]}
	ans := answer{op: opUTXOs, addr: int32(a)}
	op := opUTXOs
	for page := 0; ; page++ {
		rq, ok := c.route(w, op, args, trace)
		if !ok {
			return
		}
		res, _ := rq.Value.(*canister.GetUTXOsResult)
		if res == nil {
			c.fail("get_utxos returned no result")
			return
		}
		if page == 0 {
			ans.tip = rq.TipHeight
		}
		c.utxos += int64(len(res.UTXOs))
		prev := int64(1 << 62)
		for _, u := range res.UTXOs {
			if u.Height > prev {
				c.fail(fmt.Sprintf("get_utxos(%s) page not in height order", args.Address))
				return
			}
			prev = u.Height
			ans.view.add(u.OutPoint, u.Value)
		}
		if res.NextPage == nil {
			ans.complete = true
			break
		}
		if !walk {
			ans.count = len(res.UTXOs)
			break
		}
		args.Page = append(utxo.PageToken(nil), res.NextPage...)
		op = opUTXOsNext
	}
	c.answers = append(c.answers, ans)
}

// fail records a failed inline check as a failed query.
func (c *client) fail(msg string) {
	c.failed++
	if len(c.errs) < 3 {
		c.errs = append(c.errs, msg)
	}
}

// checkQuery checks every recorded answer against the ledger at the tip
// height the answer was served at. A walk is checked at its first page's
// tip: fed blocks only add outputs above every earlier page cursor, so the
// walk's union is exactly the address at that height.
func checkQuery(r *run, w *queryWorld, clients []*client) {
	hist := make([]*addrHistory, len(w.pop.scripts))
	view := func(a int32, tip int64) addrView {
		if hist[a] == nil {
			hist[a] = w.ch.ledger.history(w.pop.scripts[a])
		}
		return hist[a].at(tip)
	}
	lo, hi := int64(w.synced), int64(len(w.ch.wire))
	for _, c := range clients {
		r.check(c.failed == 0, "client %d: %d queries failed, first: %v", c.id, c.failed, c.errs)
		for _, a := range c.answers {
			r.check(a.tip >= lo && a.tip <= hi, "answer at tip %d outside the synced range [%d,%d]", a.tip, lo, hi)
			want := view(a.addr, a.tip)
			switch {
			case a.op == opBalance:
				r.check(a.balance == want.value, "get_balance(%s) at tip %d = %d, ledger %d",
					w.pop.addrs[a.addr], a.tip, a.balance, want.value)
			case a.complete:
				r.check(a.view == want, "get_utxos(%s) at tip %d: %d outputs worth %d, ledger %d worth %d (or repeats)",
					w.pop.addrs[a.addr], a.tip, a.view.count, a.view.value, want.count, want.value)
			default:
				r.check(a.count == canister.DefaultConfig(btc.Regtest).PageLimit && want.count > a.count,
					"get_utxos(%s) at tip %d: partial page of %d, ledger holds %d", w.pop.addrs[a.addr], a.tip, a.count, want.count)
			}
		}
	}
}
