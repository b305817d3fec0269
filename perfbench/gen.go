package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"icbtc/internal/btc"
	"icbtc/internal/experiments"
)

// genesisTime is the wall time the generated chains' canisters run at:
// after every generated block timestamp, so no header is "from the future".
var genesisTime = time.Unix(1_700_000_000, 0).UTC()

// population is a set of P2PKH addresses with their Fig 7 UTXO counts.
type population struct {
	addrs   []string
	scripts [][]byte
	counts  []int
}

// fig7Population draws the paper's Fig 7 address population at 1000/scale
// addresses: of every 1000, 517 hold fewer than 50 UTXOs, 159 hold 50-199,
// 113 hold 200-999 and 211 hold 1000 or more.
func fig7Population(seed int64, scale int) (*experiments.AddressPopulation, *population) {
	fig7 := experiments.NewAddressPopulation(btc.Regtest, seed, scale)
	p := &population{}
	for _, a := range fig7.Addresses {
		p.addrs = append(p.addrs, a.Address)
		p.scripts = append(p.scripts, a.Script)
		p.counts = append(p.counts, a.Count)
	}
	return fig7, p
}

// payees draws population addresses with probability proportional to their
// Fig 7 UTXO count, so the outputs a generated chain pays pile up in the
// paper's skew.
type payees struct {
	rng *rand.Rand
	cum []int // running sum of the counts
}

func newPayees(rng *rand.Rand, pop *population) *payees {
	p := &payees{rng: rng}
	sum := 0
	for _, n := range pop.counts {
		sum += n
		p.cum = append(p.cum, sum)
	}
	return p
}

// next returns the population index of the next payee.
func (p *payees) next() int {
	return sort.SearchInts(p.cum, 1+p.rng.Intn(p.cum[len(p.cum)-1]))
}

// heaviest returns the indices of the n addresses with the largest Fig 7
// counts, the ones a chain paid by payees pays most.
func (p *population) heaviest(n int) []int {
	idx := make([]int, len(p.counts))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return p.counts[idx[i]] > p.counts[idx[j]] })
	return idx[:min(n, len(idx))]
}

// genChain is a generated block sequence with its ledger.
type genChain struct {
	wire   [][]byte // wire bytes of blocks 1..n
	ledger *ledger
}

// chainGen appends mainnet-shaped blocks to a chain: real proof of work at
// regtest difficulty, valid Merkle roots and timestamps.
type chainGen struct {
	builder *experiments.BlockBuilder
	c       *genChain
}

func newChainGen(seed int64) *chainGen {
	return &chainGen{
		builder: experiments.NewBlockBuilder(btc.RegtestParams(), seed),
		c:       &genChain{ledger: newLedger()},
	}
}

// next mines one block from the specs and records it in the ledger.
func (g *chainGen) next(specs []experiments.TxSpec) (*btc.Block, error) {
	b, err := g.builder.NextBlock(specs)
	if err != nil {
		return nil, fmt.Errorf("generating block %d: %w", g.builder.Height()+1, err)
	}
	g.c.wire = append(g.c.wire, b.Bytes())
	g.c.ledger.apply(b, g.builder.Height())
	return b, nil
}

// ledger is the benchmark's own record of every output the generated blocks
// created and the height that spent it, built by walking the transactions.
// It shares no code with the program's UTXO set, so it can check its answers
// at any height.
type ledger struct {
	outs     map[btc.OutPoint]ledgerOut
	byScript map[string][]btc.OutPoint
	headers  [][]byte // serialized header of each height; index 0 unused
}

type ledgerOut struct {
	value   int64
	height  int64
	spentAt int64 // 0 while unspent
	script  string
}

func newLedger() *ledger {
	return &ledger{
		outs:     map[btc.OutPoint]ledgerOut{},
		byScript: map[string][]btc.OutPoint{},
		headers:  [][]byte{nil},
	}
}

// apply records block b at height h. Spends of outpoints the ledger never
// saw (the generator's imported value) change nothing, as on Bitcoin where
// they would refer to outputs older than the tracked history.
func (l *ledger) apply(b *btc.Block, h int64) {
	for ti, tx := range b.Transactions {
		if ti > 0 {
			for _, in := range tx.Inputs {
				if o, ok := l.outs[in.PreviousOutPoint]; ok && o.spentAt == 0 {
					o.spentAt = h
					l.outs[in.PreviousOutPoint] = o
				}
			}
		}
		txid := tx.TxID()
		for v, out := range tx.Outputs {
			op := btc.OutPoint{TxID: txid, Vout: uint32(v)}
			s := string(out.PkScript)
			l.outs[op] = ledgerOut{value: out.Value, height: h, script: s}
			l.byScript[s] = append(l.byScript[s], op)
		}
	}
	l.headers = append(l.headers, b.Header.Bytes())
}

// tip is the ledger's last height.
func (l *ledger) tip() int64 { return int64(len(l.headers) - 1) }

func (o ledgerOut) liveAt(h int64) bool {
	return o.height <= h && (o.spentAt == 0 || o.spentAt > h)
}

// unspentAt counts the outputs unspent after block h.
func (l *ledger) unspentAt(h int64) int {
	n := 0
	for _, o := range l.outs {
		if o.liveAt(h) {
			n++
		}
	}
	return n
}

// addrView summarizes an address's unspent outputs at a height: their
// count, value and a multiset hash of their outpoints. Two views are equal
// exactly when they hold the same outputs (up to a 2^-64 collision), so a
// paged walk that repeats or skips an output cannot match.
type addrView struct {
	count int
	value int64
	hash  uint64
}

func (v *addrView) add(op btc.OutPoint, value int64) {
	v.count++
	v.value += value
	v.hash += outpointHash(op)
}

// viewAt returns the address's view after block h.
func (l *ledger) viewAt(script []byte, h int64) addrView { return l.history(script).at(h) }

// addrHistory is an address's view after every height at which it changed.
type addrHistory struct {
	heights []int64 // ascending
	views   []addrView
}

// history builds the address's view history from its creations and spends.
func (l *ledger) history(script []byte) *addrHistory {
	type change struct {
		h     int64
		op    btc.OutPoint
		value int64
		spend bool
	}
	var changes []change
	for _, op := range l.byScript[string(script)] {
		o := l.outs[op]
		changes = append(changes, change{o.height, op, o.value, false})
		if o.spentAt != 0 {
			changes = append(changes, change{o.spentAt, op, o.value, true})
		}
	}
	sort.SliceStable(changes, func(i, j int) bool { return changes[i].h < changes[j].h })
	a := &addrHistory{}
	var v addrView
	for i, c := range changes {
		if c.spend {
			v.count--
			v.value -= c.value
			v.hash -= outpointHash(c.op)
		} else {
			v.add(c.op, c.value)
		}
		if i+1 == len(changes) || changes[i+1].h != c.h {
			a.heights = append(a.heights, c.h)
			a.views = append(a.views, v)
		}
	}
	return a
}

// at returns the view after block h.
func (a *addrHistory) at(h int64) addrView {
	i := sort.Search(len(a.heights), func(i int) bool { return a.heights[i] > h })
	if i == 0 {
		return addrView{}
	}
	return a.views[i-1]
}

// outpointHash mixes an outpoint into 64 bits (splitmix64 finalizer).
func outpointHash(op btc.OutPoint) uint64 {
	x := binary.LittleEndian.Uint64(op.TxID[:8]) ^ binary.LittleEndian.Uint64(op.TxID[8:16])<<1 ^ uint64(op.Vout)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}
