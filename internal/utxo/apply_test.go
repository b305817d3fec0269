package utxo

import (
	"bytes"
	"math/rand"
	"testing"

	"icbtc/internal/btc"
)

// applyBlockNaive is the per-entry reference the batched ApplyBlock is
// pinned against: the exact Remove/Add loop (with its Remove-then-re-Add
// rollback) the set used before the staged rewrite.
func applyBlockNaive(s *Set, block *btc.Block, height int64) (*BlockUndo, ApplyStats, error) {
	undo := &BlockUndo{}
	var stats ApplyStats
	rollback := func() {
		for i := len(undo.Created) - 1; i >= 0; i-- {
			_, _ = s.Remove(undo.Created[i])
		}
		for i := len(undo.Spent) - 1; i >= 0; i-- {
			u := undo.Spent[i]
			_ = s.Add(u.OutPoint, btc.TxOut{Value: u.Value, PkScript: u.PkScript}, u.Height)
		}
	}
	txids := block.TxIDs()
	for ti, tx := range block.Transactions {
		if !tx.IsCoinbase() {
			for i := range tx.Inputs {
				spent, err := s.Remove(tx.Inputs[i].PreviousOutPoint)
				if err != nil {
					rollback()
					return nil, ApplyStats{}, err
				}
				undo.Spent = append(undo.Spent, spent)
				stats.InputsRemoved++
			}
		}
		txid := txids[ti]
		for vout := range tx.Outputs {
			op := btc.OutPoint{TxID: txid, Vout: uint32(vout)}
			if err := s.Add(op, tx.Outputs[vout], height); err != nil {
				rollback()
				return nil, ApplyStats{}, err
			}
			undo.Created = append(undo.Created, op)
			stats.OutputsInserted++
			stats.BytesInserted += len(tx.Outputs[vout].PkScript) + 8
		}
	}
	return undo, stats, nil
}

// ingestNaive is the tolerant per-entry reference for ApplyBlockIngest: the
// canister's old stable-fold loop, including its before-the-attempt
// interned classification.
func ingestNaive(s *Set, block *btc.Block, height int64) IngestStats {
	var st IngestStats
	txids := block.TxIDs()
	for ti, tx := range block.Transactions {
		if !tx.IsCoinbase() {
			for i := range tx.Inputs {
				st.InputsRemoved++
				if _, err := s.Remove(tx.Inputs[i].PreviousOutPoint); err != nil {
					st.Errors++
				}
			}
		}
		txid := txids[ti]
		for vout := range tx.Outputs {
			if s.ScriptInterned(tx.Outputs[vout].PkScript) {
				st.OutputsInterned++
			} else {
				st.OutputsFresh++
			}
			op := btc.OutPoint{TxID: txid, Vout: uint32(vout)}
			if err := s.Add(op, tx.Outputs[vout], height); err != nil {
				st.Errors++
			}
		}
	}
	return st
}

// randomApplyBlock builds a random block over a population of scripts, spending
// from pool with replacement (double spends, aliens) — the difftest
// workload shape, plus occasional bursts that stress per-bucket merges.
func randomApplyBlock(rng *rand.Rand, scripts [][]byte, pool []btc.OutPoint) *btc.Block {
	blk := &btc.Block{}
	coin := &btc.Transaction{Version: 2, Inputs: []btc.TxIn{{
		PreviousOutPoint: btc.OutPoint{TxID: btc.ZeroHash, Vout: 0xffffffff},
		SignatureScript:  []byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))},
	}}, Outputs: []btc.TxOut{{Value: 5000, PkScript: scripts[rng.Intn(len(scripts))]}}}
	blk.Transactions = append(blk.Transactions, coin)
	for n := rng.Intn(6); n > 0; n-- {
		tx := &btc.Transaction{Version: 2}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			if len(pool) > 0 && rng.Intn(3) > 0 {
				tx.Inputs = append(tx.Inputs, btc.TxIn{PreviousOutPoint: pool[rng.Intn(len(pool))]})
			} else {
				var fake btc.OutPoint
				rng.Read(fake.TxID[:])
				tx.Inputs = append(tx.Inputs, btc.TxIn{PreviousOutPoint: fake})
			}
		}
		outs := 1 + rng.Intn(3)
		if rng.Intn(8) == 0 {
			outs = 20 + rng.Intn(20) // burst: deep same-address bucket
		}
		script := scripts[rng.Intn(len(scripts))]
		for k := 0; k < outs; k++ {
			sc := script
			if rng.Intn(4) == 0 {
				sc = scripts[rng.Intn(len(scripts))]
			}
			tx.Outputs = append(tx.Outputs, btc.TxOut{Value: 500 + int64(rng.Intn(9000)), PkScript: sc})
		}
		blk.Transactions = append(blk.Transactions, tx)
	}
	return blk
}

// TestApplyBlockBatchedEquivalence drives the batched ApplyBlock and the
// per-entry reference through an identical random workload (tolerant
// ingest interleaved on separate sets) and requires byte-identical encoded
// state, identical undo data, stats, and errors at every block.
func TestApplyBlockBatchedEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		scripts := make([][]byte, 6)
		for i := range scripts {
			var h [20]byte
			rng.Read(h[:])
			scripts[i] = btc.PayToAddrScript(btc.NewP2PKHAddress(h, btc.Regtest))
		}
		batched := New(btc.Regtest)
		naive := New(btc.Regtest)
		var pool []btc.OutPoint
		for height := int64(1); height <= 40; height++ {
			blk := randomApplyBlock(rng, scripts, pool)
			txids := blk.TxIDs()
			for ti, tx := range blk.Transactions {
				for v := range tx.Outputs {
					pool = append(pool, btc.OutPoint{TxID: txids[ti], Vout: uint32(v)})
				}
			}

			undoB, statsB, errB := batched.ApplyBlock(blk, height)
			undoN, statsN, errN := applyBlockNaive(naive, blk, height)
			if (errB == nil) != (errN == nil) {
				t.Fatalf("seed %d height %d: error divergence: batched=%v naive=%v", seed, height, errB, errN)
			}
			if errB == nil {
				if statsB != statsN {
					t.Fatalf("seed %d height %d: stats divergence: %+v vs %+v", seed, height, statsB, statsN)
				}
				if len(undoB.Spent) != len(undoN.Spent) || len(undoB.Created) != len(undoN.Created) {
					t.Fatalf("seed %d height %d: undo shape divergence", seed, height)
				}
				for i := range undoB.Spent {
					a, b := undoB.Spent[i], undoN.Spent[i]
					if a.OutPoint != b.OutPoint || a.Value != b.Value || a.Height != b.Height || !bytes.Equal(a.PkScript, b.PkScript) {
						t.Fatalf("seed %d height %d: undo.Spent[%d] diverged", seed, height, i)
					}
				}
				for i := range undoB.Created {
					if undoB.Created[i] != undoN.Created[i] {
						t.Fatalf("seed %d height %d: undo.Created[%d] diverged", seed, height, i)
					}
				}
			}
			if !bytes.Equal(encodeSet(batched), encodeSet(naive)) {
				t.Fatalf("seed %d height %d: encoded state diverged", seed, height)
			}
			// Unapply/reapply round trip keeps both in lockstep too.
			if errB == nil && rng.Intn(4) == 0 {
				if err := batched.UnapplyBlock(undoB); err != nil {
					t.Fatalf("seed %d height %d: unapply batched: %v", seed, height, err)
				}
				if err := naive.UnapplyBlock(undoN); err != nil {
					t.Fatalf("seed %d height %d: unapply naive: %v", seed, height, err)
				}
				if !bytes.Equal(encodeSet(batched), encodeSet(naive)) {
					t.Fatalf("seed %d height %d: post-unapply state diverged", seed, height)
				}
				if _, _, err := batched.ApplyBlock(blk, height); err != nil {
					t.Fatal(err)
				}
				if _, _, err := applyBlockNaive(naive, blk, height); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestApplyBlockIngestEquivalence pins the tolerant batched fold against
// the per-entry tolerant loop: identical final state and identical
// metering classification (interned vs fresh at processing time), across
// workloads full of missing inputs and duplicate outputs.
func TestApplyBlockIngestEquivalence(t *testing.T) {
	for seed := int64(100); seed < 106; seed++ {
		rng := rand.New(rand.NewSource(seed))
		scripts := make([][]byte, 5)
		for i := range scripts {
			var h [20]byte
			rng.Read(h[:])
			scripts[i] = btc.PayToAddrScript(btc.NewP2PKHAddress(h, btc.Regtest))
		}
		batched := New(btc.Regtest)
		naive := New(btc.Regtest)
		var pool []btc.OutPoint
		for height := int64(1); height <= 40; height++ {
			blk := randomApplyBlock(rng, scripts, pool)
			txids := blk.TxIDs()
			for ti, tx := range blk.Transactions {
				for v := range tx.Outputs {
					pool = append(pool, btc.OutPoint{TxID: txids[ti], Vout: uint32(v)})
				}
			}
			stB := batched.ApplyBlockIngest(blk, height)
			stN := ingestNaive(naive, blk, height)
			if stB != stN {
				t.Fatalf("seed %d height %d: ingest stats diverged: %+v vs %+v", seed, height, stB, stN)
			}
			if !bytes.Equal(encodeSet(batched), encodeSet(naive)) {
				t.Fatalf("seed %d height %d: encoded state diverged", seed, height)
			}
		}
	}
}

// TestApplyBlockMidBlockFailure is the satellite regression: a block that
// fails mid-way (earlier transactions already created outputs and spent
// inputs) must leave the set — outpoint table, address index, interned
// scripts, balances — byte-identical to the pre-apply state, with no
// ScriptID re-derivation on any rollback path (there is none to take).
func TestApplyBlockMidBlockFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var h1, h2 [20]byte
	rng.Read(h1[:])
	rng.Read(h2[:])
	scriptA := btc.PayToAddrScript(btc.NewP2PKHAddress(h1, btc.Regtest))
	scriptB := btc.PayToAddrScript(btc.NewP2PKHAddress(h2, btc.Regtest))

	s := New(btc.Regtest)
	var seedOps []btc.OutPoint
	for i := 0; i < 10; i++ {
		var op btc.OutPoint
		rng.Read(op.TxID[:])
		seedOps = append(seedOps, op)
		if err := s.Add(op, btc.TxOut{Value: 1000 + int64(i), PkScript: scriptA}, 1); err != nil {
			t.Fatal(err)
		}
	}
	before := encodeSet(s)
	beforeLen, beforeInterned := s.Len(), s.InternedScripts()

	var missing btc.OutPoint
	rng.Read(missing.TxID[:])
	blk := &btc.Block{Transactions: []*btc.Transaction{
		{Version: 2, Inputs: []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.ZeroHash, Vout: 0xffffffff}}},
			Outputs: []btc.TxOut{{Value: 5000, PkScript: scriptB}}},
		// Spends real outputs and creates new ones for a brand-new script.
		{Version: 2, Inputs: []btc.TxIn{{PreviousOutPoint: seedOps[0]}, {PreviousOutPoint: seedOps[1]}},
			Outputs: []btc.TxOut{{Value: 100, PkScript: scriptB}, {Value: 200, PkScript: scriptB}}},
		// Fails: spends an outpoint the set never held.
		{Version: 2, Inputs: []btc.TxIn{{PreviousOutPoint: missing}},
			Outputs: []btc.TxOut{{Value: 300, PkScript: scriptA}}},
	}}

	undo, stats, err := s.ApplyBlock(blk, 2)
	if err == nil {
		t.Fatal("mid-block failure not reported")
	}
	if undo != nil || stats != (ApplyStats{}) {
		t.Fatalf("failed apply returned undo=%v stats=%+v", undo, stats)
	}
	if got := encodeSet(s); !bytes.Equal(before, got) {
		t.Fatal("failed apply left the set changed: encoded state differs from pre-apply state")
	}
	if s.Len() != beforeLen || s.InternedScripts() != beforeInterned {
		t.Fatalf("failed apply leaked state: len %d->%d, interned %d->%d",
			beforeLen, s.Len(), beforeInterned, s.InternedScripts())
	}
	// scriptB must not have been interned by the failed block.
	if s.ScriptInterned(scriptB) {
		t.Fatal("failed apply interned a script from an uncommitted block")
	}
}

// TestApplyBlockInBlockSpendChain: a block whose later transaction spends
// an output an earlier transaction in the same block created (routine in
// real Bitcoin) must apply, and — the regression — unapply back to a
// byte-identical pre-apply state. The old per-entry apply recorded such
// pairs in both undo lists, which made UnapplyBlock fail on the Created
// removal; netted undo excludes the pair entirely.
func TestApplyBlockInBlockSpendChain(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var h1, h2 [20]byte
	rng.Read(h1[:])
	rng.Read(h2[:])
	scriptA := btc.PayToAddrScript(btc.NewP2PKHAddress(h1, btc.Regtest))
	scriptB := btc.PayToAddrScript(btc.NewP2PKHAddress(h2, btc.Regtest))

	s := New(btc.Regtest)
	var base btc.OutPoint
	rng.Read(base.TxID[:])
	if err := s.Add(base, btc.TxOut{Value: 7000, PkScript: scriptA}, 1); err != nil {
		t.Fatal(err)
	}
	before := encodeSet(s)

	tx1 := &btc.Transaction{Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.ZeroHash, Vout: 0xffffffff}}},
		Outputs: []btc.TxOut{{Value: 5000, PkScript: scriptB}, {Value: 100, PkScript: scriptA}}}
	// tx2 spends tx1's first output AND a pre-existing one, creating fresh
	// outputs — the chained shape.
	tx2 := &btc.Transaction{Version: 2,
		Inputs: []btc.TxIn{
			{PreviousOutPoint: btc.OutPoint{TxID: tx1.TxID(), Vout: 0}},
			{PreviousOutPoint: base},
		},
		Outputs: []btc.TxOut{{Value: 4000, PkScript: scriptB}}}
	blk := &btc.Block{Transactions: []*btc.Transaction{tx1, tx2}}

	undo, stats, err := s.ApplyBlock(blk, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.OutputsInserted != 3 || stats.InputsRemoved != 2 {
		t.Fatalf("stats %+v, want 3 inserts / 2 removes", stats)
	}
	// Netted undo: the chained output never appears; the surviving two do.
	if len(undo.Created) != 2 || len(undo.Spent) != 1 || undo.Spent[0].OutPoint != base {
		t.Fatalf("undo shape: %d created, %d spent", len(undo.Created), len(undo.Spent))
	}
	// The chained output must be gone, its siblings present.
	if _, ok := s.Get(btc.OutPoint{TxID: tx1.TxID(), Vout: 0}); ok {
		t.Fatal("in-block-spent output still in set")
	}
	if _, ok := s.Get(btc.OutPoint{TxID: tx2.TxID(), Vout: 0}); !ok {
		t.Fatal("chained transaction's output missing")
	}

	if err := s.UnapplyBlock(undo); err != nil {
		t.Fatalf("unapply of in-block spend chain: %v", err)
	}
	if got := encodeSet(s); !bytes.Equal(before, got) {
		t.Fatal("unapply did not restore the pre-apply state byte-identically")
	}
}

// TestBucketInsertBatch drives the one-pass merge against per-entry
// insertion across random batch shapes (appends, interleavings, single
// heights, mixed heights).
func TestBucketInsertBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 300; iter++ {
		var a, b bucket
		n := rng.Intn(30)
		for i := 0; i < n; i++ {
			u := record{Height: int64(rng.Intn(6)), Value: int64(i)}
			rng.Read(u.OutPoint.TxID[:])
			u.OutPoint.Vout = uint32(rng.Intn(3))
			a.insert(u)
			b.insert(u)
		}
		m := 1 + rng.Intn(20)
		batch := make([]record, 0, m)
		h := int64(rng.Intn(8)) // often above existing heights, sometimes interleaved
		for i := 0; i < m; i++ {
			u := record{Height: h, Value: int64(100 + i)}
			if rng.Intn(4) == 0 {
				u.Height = int64(rng.Intn(8))
			}
			rng.Read(u.OutPoint.TxID[:])
			u.OutPoint.Vout = uint32(rng.Intn(3))
			// Skip accidental duplicates against existing or batch entries.
			dup := false
			for k := range a.asc {
				if a.asc[k].OutPoint == u.OutPoint && a.asc[k].Height == u.Height {
					dup = true
				}
			}
			for k := range batch {
				if batch[k].OutPoint == u.OutPoint && batch[k].Height == u.Height {
					dup = true
				}
			}
			if dup {
				continue
			}
			batch = append(batch, u)
		}
		if len(batch) == 0 {
			continue
		}
		// insertBatch wants storage order (height ascending).
		sorted := append([]record(nil), batch...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && storageLess(&sorted[j], &sorted[j-1]); j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		a.insertBatch(sorted)
		for _, u := range batch {
			b.insert(u)
		}
		if len(a.asc) != len(b.asc) {
			t.Fatalf("iter %d: lengths %d vs %d", iter, len(a.asc), len(b.asc))
		}
		for i := range a.asc {
			if a.asc[i].OutPoint != b.asc[i].OutPoint || a.asc[i].Height != b.asc[i].Height || a.asc[i].Value != b.asc[i].Value {
				t.Fatalf("iter %d: entry %d diverged", iter, i)
			}
		}
	}
}
