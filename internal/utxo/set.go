// Package utxo implements the unspent-transaction-output set the Bitcoin
// canister stores (§III-C): "the implementation uses a data structure with
// Bitcoin addresses as the index for an efficient retrieval of all UTXOs
// associated with an address."
//
// The address index is ordered (see index.go): every bucket maintains the
// canonical height-descending get_utxos order incrementally, so reads
// stream pages in O(log n + page) and balances are O(1) running totals. On
// the write path locking scripts are interned — each distinct script is
// address-decoded/hashed once and its bytes stored once — and every entry
// remembers its derived address key, so Remove never recomputes a ScriptID.
//
// The stored layout holds no pointers per output, so the garbage collector
// never scans it however large the set grows: scripts live in a dense table
// indexed by a uint32 script ID, bucket entries are flat records carrying
// that ID, and the outpoint index is an open-addressed table of fixed-size
// slots (outpoints.go). A UTXO, with its PkScript slice, is materialized
// only when read.
//
// The set supports applying and unapplying whole blocks (the latter is used
// by the simulated Bitcoin nodes during reorgs; the canister itself never
// rolls back below the anchor), balance computation, and height-descending
// paginated retrieval as required by the get_utxos endpoint.
package utxo

import (
	"errors"
	"fmt"
	"slices"

	"icbtc/internal/btc"
)

// UTXO is one unspent output together with the height of the block that
// created it.
type UTXO struct {
	OutPoint btc.OutPoint
	Value    int64
	PkScript []byte
	Height   int64
}

// internedScript is the single stored copy of one distinct locking script
// together with its memoized address key. Interning makes the per-output
// cost of repeated scripts (the common case: one address receiving many
// outputs) a map probe instead of an address decode plus SHA-256.
type internedScript struct {
	bytes []byte
	key   string
	refs  int
}

// record is the stored form of one unspent output, in both the outpoint
// table and the address buckets: 56 bytes, no pointers. sid names the
// interned script, which carries both the script bytes and the derived
// address key, so spends never re-derive either.
type record struct {
	Value    int64
	Height   int64
	OutPoint btc.OutPoint
	sid      uint32
}

// Set is an address-indexed UTXO set. The zero value is not usable; use New.
type Set struct {
	network btc.Network
	// outpoints is the authoritative index of unspent outputs.
	outpoints opTable
	// byAddress indexes ordered buckets by the ScriptID of their locking
	// script (see index.go).
	byAddress map[string]*bucket
	// scripts is the interned-script table indexed by script ID; scriptIDs
	// finds a script's ID by its bytes, and free lists the IDs of released
	// scripts for reuse, so the table stays as dense as the live scripts.
	scripts   []internedScript
	scriptIDs map[string]uint32
	free      []uint32
	// approxBytes tracks an estimate of resident memory, reported by Fig 5.
	approxBytes int64
}

// New creates an empty UTXO set for a network.
func New(network btc.Network) *Set {
	return &Set{
		network:   network,
		outpoints: newOpTable(0),
		byAddress: make(map[string]*bucket),
		scriptIDs: make(map[string]uint32),
	}
}

// Len returns the number of unspent outputs.
func (s *Set) Len() int { return s.outpoints.len() }

// ApproxBytes returns an estimate of the set's resident size in bytes
// (outpoint + entry overhead + script bytes), used by the Fig 5 experiment.
func (s *Set) ApproxBytes() int64 { return s.approxBytes }

// Network returns the network the set indexes addresses for.
func (s *Set) Network() btc.Network { return s.network }

// perUTXOOverhead approximates the per-output storage footprint of the
// production canister (value, outpoint, address index entry, and stable-
// memory bookkeeping): the paper's end point of 103 GiB for ~170 M UTXOs
// works out to ~650 bytes per UTXO, most of it metadata rather than the
// script itself.
const perUTXOOverhead = 580

// intern returns the ID of the single stored copy of script, creating it
// (one copy, one ScriptID derivation) on first sight.
func (s *Set) intern(script []byte) uint32 {
	if sid, ok := s.scriptIDs[string(script)]; ok {
		return sid
	}
	return s.internWithKey(script, btc.ScriptID(script, s.network))
}

// internWithKey interns a script whose address key the caller has already
// derived (the batched apply derives keys once per distinct script during
// staging), skipping the re-derivation intern would pay on a miss. A new
// script takes a released ID when there is one.
func (s *Set) internWithKey(script []byte, key string) uint32 {
	if sid, ok := s.scriptIDs[string(script)]; ok {
		return sid
	}
	cp := make([]byte, len(script))
	copy(cp, script)
	sc := internedScript{bytes: cp, key: key}
	var sid uint32
	if n := len(s.free); n > 0 {
		sid = s.free[n-1]
		s.free = s.free[:n-1]
		s.scripts[sid] = sc
	} else {
		sid = uint32(len(s.scripts))
		s.scripts = append(s.scripts, sc)
	}
	s.scriptIDs[string(cp)] = sid
	return sid
}

// release drops one reference to an interned script, un-interning it when
// the last UTXO carrying it is spent so the table cannot grow unboundedly.
func (s *Set) release(sid uint32) {
	sc := &s.scripts[sid]
	sc.refs--
	if sc.refs == 0 {
		delete(s.scriptIDs, string(sc.bytes))
		*sc = internedScript{}
		s.free = append(s.free, sid)
	}
}

// utxo materializes the stored record r.
func (s *Set) utxo(r *record) UTXO {
	return UTXO{OutPoint: r.OutPoint, Value: r.Value, PkScript: s.scripts[r.sid].bytes, Height: r.Height}
}

// ScriptInterned reports whether the set already holds an interned copy of
// script — i.e. whether inserting another output with it skips the address
// decode and hash. The execution layer's metering uses this to price
// insertions (Fig 6). The lookup itself allocates nothing.
func (s *Set) ScriptInterned(script []byte) bool {
	_, ok := s.scriptIDs[string(script)]
	return ok
}

// InternedScripts returns the number of distinct locking scripts currently
// interned (observability).
func (s *Set) InternedScripts() int { return len(s.scriptIDs) }

// Add inserts an unspent output. Adding a duplicate outpoint is an error
// (it would indicate a consensus bug upstream).
func (s *Set) Add(op btc.OutPoint, out btc.TxOut, height int64) error {
	if s.outpoints.has(op) {
		return fmt.Errorf("utxo: duplicate outpoint %s", op)
	}
	sid := s.intern(out.PkScript)
	sc := &s.scripts[sid]
	sc.refs++
	r := record{Value: out.Value, Height: height, OutPoint: op, sid: sid}
	s.outpoints.insert(r)
	b := s.byAddress[sc.key]
	if b == nil {
		b = &bucket{}
		s.byAddress[sc.key] = b
	}
	b.insert(r)
	b.balance += out.Value
	s.approxBytes += int64(perUTXOOverhead + len(sc.bytes))
	return nil
}

// ErrMissingOutput is returned when spending an output not in the set.
var ErrMissingOutput = errors.New("utxo: output not in set")

// Remove spends an output, returning the removed UTXO so callers can build
// undo data. The stored address key is reused — no script decoding.
func (s *Set) Remove(op btc.OutPoint) (UTXO, error) {
	r, ok := s.outpoints.remove(op)
	if !ok {
		return UTXO{}, fmt.Errorf("%w: %s", ErrMissingOutput, op)
	}
	sc := &s.scripts[r.sid]
	if b := s.byAddress[sc.key]; b != nil {
		b.remove(op, r.Height)
		b.balance -= r.Value
		if len(b.asc) == 0 {
			delete(s.byAddress, sc.key)
		}
	}
	s.approxBytes -= int64(perUTXOOverhead + len(sc.bytes))
	u := s.utxo(&r)
	s.release(r.sid)
	return u, nil
}

// Get returns the UTXO for an outpoint if present.
func (s *Set) Get(op btc.OutPoint) (UTXO, bool) {
	r, ok := s.outpoints.get(op)
	if !ok {
		return UTXO{}, false
	}
	return s.utxo(&r), true
}

// AddressKeyOf returns the memoized address key of an unspent outpoint.
func (s *Set) AddressKeyOf(op btc.OutPoint) (string, bool) {
	r, ok := s.outpoints.get(op)
	if !ok {
		return "", false
	}
	return s.scripts[r.sid].key, true
}

// BlockUndo records everything needed to unapply a block. Outputs both
// created and spent within the same block (in-block spend chains, routine
// in real Bitcoin) net to nothing and are excluded entirely: they are
// invisible in the post-apply state, so undo has nothing to reverse. (The
// old per-entry apply recorded such pairs in both lists, which made
// UnapplyBlock fail on any block containing one.)
type BlockUndo struct {
	// Spent holds the pre-existing UTXOs the block consumed, in
	// consumption order.
	Spent []UTXO
	// Created holds the outpoints of outputs the block added that were
	// still unspent at the end of the block, in insertion order.
	Created []btc.OutPoint
}

// ApplyStats reports the work done applying a block; the execution layer's
// metering consumes these to price block ingestion (Fig 6).
type ApplyStats struct {
	OutputsInserted int
	InputsRemoved   int
	BytesInserted   int
}

// ApplyBlock applies all transactions of a block at the given height:
// removes every spent input (except coinbase inputs) and inserts every
// created output. Transaction IDs come from the block's memoized table —
// they are computed once per block, not re-serialized per call site. It
// returns undo data and work statistics.
//
// The apply is batched: the block is first replayed against a staged view
// (no set mutation), then committed — spends as ordered removals,
// insertions grouped per address bucket so each bucket does one ordered
// merge instead of per-entry binary insertion, and undo entries carved from
// presized arenas. On error nothing was committed, so the set is left
// untouched (there is no rollback path to re-derive ScriptIDs on), and the
// first error in block order is reported exactly as the per-entry apply
// would have.
func (s *Set) ApplyBlock(block *btc.Block, height int64) (*BlockUndo, ApplyStats, error) {
	st := s.stageBlock(block, height, true)
	if st.err != nil {
		return nil, ApplyStats{}, fmt.Errorf("utxo: applying block at height %d: %w", height, st.err)
	}
	s.commitStage(st, height)
	stats := ApplyStats{
		OutputsInserted: len(st.inserts),
		InputsRemoved:   st.removed,
		BytesInserted:   st.bytesInserted,
	}
	// Undo holds the net effect only: pre-existing spends and surviving
	// creations; in-block created-and-spent pairs cancel.
	created := make([]btc.OutPoint, 0, len(st.liveIdx))
	for i := range st.inserts {
		if st.inserts[i].live {
			created = append(created, st.inserts[i].op)
		}
	}
	undo := &BlockUndo{Spent: st.spentBase, Created: created}
	return undo, stats, nil
}

// IngestStats reports the work of one tolerant block fold into the stable
// set — the counts the execution layer's metering prices (Fig 6). Outputs
// are classified by whether their locking script was interned at the moment
// that output was processed (insertions earlier in the same block count),
// exactly as the per-entry loop's ScriptInterned probe would have.
type IngestStats struct {
	// InputsRemoved counts removal attempts (every non-coinbase input;
	// metering charges the attempt, not the success).
	InputsRemoved int
	// OutputsInterned/OutputsFresh partition every output (including
	// skipped duplicates, which the per-entry loop also charged) by the
	// at-the-time interned status of its script.
	OutputsInterned int
	OutputsFresh    int
	// Errors counts tolerated failures: missing inputs plus duplicate
	// outputs, both skipped without touching the set.
	Errors int
}

// ApplyBlockIngest folds a block into the set tolerantly — the canister's
// stable-ingestion semantics: a missing input or duplicate output is
// counted and skipped rather than failing the block ("the canister trusts
// proof of work, not transaction validity"). The final state is identical
// to a per-entry Remove/Add loop that ignores individual errors, but
// insertions land in one ordered merge per address bucket. No undo data is
// built; the canister never rolls back below the anchor.
func (s *Set) ApplyBlockIngest(block *btc.Block, height int64) IngestStats {
	st := s.stageBlock(block, height, false)
	s.commitStage(st, height)
	return IngestStats{
		InputsRemoved:   st.inputsAttempted,
		OutputsInterned: st.outputsInterned,
		OutputsFresh:    st.outputsFresh,
		Errors:          st.errors,
	}
}

// stagedInsert is one successfully staged output creation.
type stagedInsert struct {
	op  btc.OutPoint
	out btc.TxOut
	// key is the derived address key (from the interned table when the
	// script is known, derived once per distinct script otherwise).
	key string
	// live is cleared when a later transaction in the same block spends the
	// output; only live inserts are committed.
	live bool
}

// blockStage is the virtual view a block is replayed against before any
// mutation touches the set.
type blockStage struct {
	// err is the first error in block order (strict mode only).
	err error

	// spentBase collects consumed pre-existing UTXOs in consumption order
	// (undo.Spent); removed counts every successful removal, staged spends
	// included (the stats figure).
	spentBase []UTXO
	removed   int
	// inserts collects every successful staged insertion, in order.
	inserts []stagedInsert
	// liveIdx maps a live staged outpoint to its index in inserts.
	liveIdx map[btc.OutPoint]int
	// removedBase lists base-set outpoints staged for removal, in order;
	// removedSet is its membership view.
	removedBase []btc.OutPoint
	removedSet  map[btc.OutPoint]bool
	// refDelta tracks the net interned-reference change per script so the
	// at-the-time interned classification matches the live-mutation loop.
	refDelta map[string]int
	// keys memoizes address-key derivations for scripts not interned yet.
	keys map[string]string

	bytesInserted   int
	inputsAttempted int
	outputsInterned int
	outputsFresh    int
	errors          int
}

// keyOf derives (memoized) the address key of a script during staging,
// reusing the interned table's stored key whenever the script is known.
func (st *blockStage) keyOf(s *Set, script []byte) string {
	if sid, ok := s.scriptIDs[string(script)]; ok {
		return s.scripts[sid].key
	}
	if key, ok := st.keys[string(script)]; ok {
		return key
	}
	key := btc.ScriptID(script, s.network)
	st.keys[string(script)] = key
	return key
}

// internedNow reports whether script is interned in the staged view: base
// references plus the staged delta.
func (st *blockStage) internedNow(s *Set, script []byte) bool {
	refs := st.refDelta[string(script)]
	if sid, ok := s.scriptIDs[string(script)]; ok {
		refs += s.scripts[sid].refs
	}
	return refs > 0
}

// stageBlock replays the block's transactions in order against the staged
// view. In strict mode the first failure stops the stage with err set; in
// tolerant mode failures are counted and skipped. The set itself is never
// touched.
func (s *Set) stageBlock(block *btc.Block, height int64, strict bool) *blockStage {
	nIn, nOut := 0, 0
	for _, tx := range block.Transactions {
		if !tx.IsCoinbase() {
			nIn += len(tx.Inputs)
		}
		nOut += len(tx.Outputs)
	}
	st := &blockStage{
		spentBase:  make([]UTXO, 0, nIn),
		inserts:    make([]stagedInsert, 0, nOut),
		liveIdx:    make(map[btc.OutPoint]int, nOut),
		removedSet: make(map[btc.OutPoint]bool, nIn),
		refDelta:   make(map[string]int, 8),
		keys:       make(map[string]string, 8),
	}
	txids := block.TxIDs()
	for ti, tx := range block.Transactions {
		if !tx.IsCoinbase() {
			for i := range tx.Inputs {
				op := tx.Inputs[i].PreviousOutPoint
				st.inputsAttempted++
				if idx, ok := st.liveIdx[op]; ok {
					// Spends an output created earlier in this block: the
					// pair nets out and never reaches the undo data.
					ins := &st.inserts[idx]
					ins.live = false
					delete(st.liveIdx, op)
					st.removed++
					st.refDelta[string(ins.out.PkScript)]--
					continue
				}
				if r, ok := s.outpoints.get(op); ok && !st.removedSet[op] {
					st.removedSet[op] = true
					st.removedBase = append(st.removedBase, op)
					u := s.utxo(&r)
					st.spentBase = append(st.spentBase, u)
					st.removed++
					st.refDelta[string(u.PkScript)]--
					continue
				}
				if strict {
					st.err = fmt.Errorf("%w: %s", ErrMissingOutput, op)
					return st
				}
				st.errors++
			}
		}
		txid := txids[ti]
		for vout := range tx.Outputs {
			op := btc.OutPoint{TxID: txid, Vout: uint32(vout)}
			out := tx.Outputs[vout]
			if !strict {
				// Metering classification happens before the insert attempt,
				// as the per-entry loop's ScriptInterned probe did.
				if st.internedNow(s, out.PkScript) {
					st.outputsInterned++
				} else {
					st.outputsFresh++
				}
			}
			inBase := s.outpoints.has(op)
			_, inStaged := st.liveIdx[op]
			if (inBase && !st.removedSet[op]) || inStaged {
				if strict {
					st.err = fmt.Errorf("utxo: duplicate outpoint %s", op)
					return st
				}
				st.errors++
				continue
			}
			st.liveIdx[op] = len(st.inserts)
			st.inserts = append(st.inserts, stagedInsert{op: op, out: out, key: st.keyOf(s, out.PkScript), live: true})
			st.bytesInserted += len(out.PkScript) + 8
			st.refDelta[string(out.PkScript)]++
		}
	}
	return st
}

// commitStage applies a completed stage to the set: ordered base removals
// first, then the surviving insertions grouped per address bucket, each
// bucket merged in one pass. The resulting set — outpoint table, interned
// table and reference counts, bucket contents and balances, byte estimate —
// is identical to what the per-entry loop would have produced.
func (s *Set) commitStage(st *blockStage, height int64) {
	for _, op := range st.removedBase {
		// Remove reuses the stored address key; no script re-derivation.
		_, _ = s.Remove(op)
	}
	if len(st.liveIdx) == 0 {
		return
	}
	// Group surviving inserts by address key in first-insertion order.
	groups := make(map[string][]record, len(st.keys)+len(st.liveIdx)/4+1)
	var order []string
	for i := range st.inserts {
		ins := &st.inserts[i]
		if !ins.live {
			continue
		}
		sid := s.internWithKey(ins.out.PkScript, ins.key)
		sc := &s.scripts[sid]
		sc.refs++
		r := record{Value: ins.out.Value, Height: height, OutPoint: ins.op, sid: sid}
		s.outpoints.insert(r)
		s.approxBytes += int64(perUTXOOverhead + len(sc.bytes))
		if _, ok := groups[ins.key]; !ok {
			order = append(order, ins.key)
		}
		groups[ins.key] = append(groups[ins.key], r)
	}
	for _, key := range order {
		list := groups[key]
		// All entries share the block's height, so the storage order is the
		// txid/vout tie-break.
		slices.SortFunc(list, func(a, b record) int {
			switch {
			case storageLess(&a, &b):
				return -1
			case storageLess(&b, &a):
				return 1
			}
			return 0
		})
		b := s.byAddress[key]
		if b == nil {
			b = &bucket{}
			s.byAddress[key] = b
		}
		b.insertBatch(list)
		for i := range list {
			b.balance += list[i].Value
		}
	}
}

// UnapplyBlock reverses a previous ApplyBlock using its undo data: the
// surviving creations are removed, then the pre-existing spends restored.
// In-block created-and-spent pairs were netted out of the undo, so every
// Created outpoint is present and every Spent entry re-adds cleanly.
func (s *Set) UnapplyBlock(undo *BlockUndo) error {
	for i := len(undo.Created) - 1; i >= 0; i-- {
		if _, err := s.Remove(undo.Created[i]); err != nil {
			return fmt.Errorf("utxo: unapply remove: %w", err)
		}
	}
	for i := len(undo.Spent) - 1; i >= 0; i-- {
		u := undo.Spent[i]
		if err := s.Add(u.OutPoint, btc.TxOut{Value: u.Value, PkScript: u.PkScript}, u.Height); err != nil {
			return fmt.Errorf("utxo: unapply restore: %w", err)
		}
	}
	return nil
}

// Balance returns the total unspent value locked to an address key: the
// bucket's running total, maintained on Add/Remove — O(1), no bucket walk.
func (s *Set) Balance(addressKey string) int64 {
	b := s.byAddress[addressKey]
	if b == nil {
		return 0
	}
	return b.balance
}

// UTXOsForAddress returns all UTXOs for an address key sorted by height in
// descending order (the get_utxos contract: "sorted by block height in
// descending order, ensuring the correctness of the pagination mechanism"),
// with ties broken deterministically by outpoint. The bucket maintains its
// height groups in order incrementally, so the call streams the canonical
// order in one pass — no sort.
func (s *Set) UTXOsForAddress(addressKey string) []UTXO {
	b := s.byAddress[addressKey]
	if b == nil || len(b.asc) == 0 {
		return nil
	}
	out := make([]UTXO, 0, len(b.asc))
	it := s.AddressIter(addressKey)
	for u, ok := it.Next(); ok; u, ok = it.Next() {
		out = append(out, u)
	}
	return out
}

// AddressCount returns the number of distinct address keys with UTXOs.
func (s *Set) AddressCount() int { return len(s.byAddress) }

// ForEach visits every UTXO in unspecified order; visit returning false
// stops the walk. visit must not modify the set.
func (s *Set) ForEach(visit func(UTXO) bool) {
	s.outpoints.each(func(r record) bool { return visit(s.utxo(&r)) })
}
