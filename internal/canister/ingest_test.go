package canister

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"icbtc/internal/adapter"
	"icbtc/internal/btc"
	"icbtc/internal/ingest"
)

// chainWire mines a transaction-bearing chain on the rig's node and
// returns the blocks in wire form, root to tip.
func chainWire(t *testing.T, r *rig, n, txs int) ([][]byte, []*btc.Block) {
	t.Helper()
	blocks, err := r.miner.MineChain(n, txs)
	if err != nil {
		t.Fatal(err)
	}
	wire := make([][]byte, 0, len(blocks))
	for _, b := range blocks {
		wire = append(wire, b.Bytes())
	}
	return wire, blocks
}

func snapshotOf(t *testing.T, c *BitcoinCanister) []byte {
	t.Helper()
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestSyncWireMatchesSerial: catching up from wire bytes through the
// pipeline must leave the canister byte-identical (full snapshot,
// counters included) to parsing every block and processing them through
// the serial path in one payload — at every worker count and window.
func TestSyncWireMatchesSerial(t *testing.T) {
	r := newRig(t, 3)
	wire, _ := chainWire(t, r, 20, 5)

	serial := New(DefaultConfig(btc.Regtest))
	resp := adapter.Response{}
	for _, w := range wire {
		blk, err := btc.ParseBlock(w)
		if err != nil {
			t.Fatal(err)
		}
		resp.Blocks = append(resp.Blocks, adapter.BlockWithHeader{Block: blk, Header: blk.Header})
	}
	if err := serial.ProcessPayload(r.ctx(), resp); err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(t, serial)

	for _, cfg := range []ingest.Config{
		{Workers: 1}, {Workers: 2, Window: 2}, {Workers: 4}, {Workers: 8, Window: 3}, {Workers: 8, Window: 32},
	} {
		pipelined := New(DefaultConfig(btc.Regtest))
		stats, err := pipelined.SyncWire(r.ctx(), wire, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Accepted != len(wire) || stats.Rejected != 0 {
			t.Fatalf("workers=%d: accepted %d rejected %d of %d", cfg.Workers, stats.Accepted, stats.Rejected, len(wire))
		}
		if !bytes.Equal(snapshotOf(t, pipelined), want) {
			t.Fatalf("workers=%d window=%d: pipelined state diverged from serial", cfg.Workers, cfg.Window)
		}
	}
}

// TestSyncWireRejectsLikeSerial: invalid entries — undecodable bytes, a
// tampered merkle root, an orphan — must be rejected without disturbing
// the rest of the batch, leaving the same state and reject counters the
// serial path reports.
func TestSyncWireRejectsLikeSerial(t *testing.T) {
	r := newRig(t, 5)
	wire, blocks := chainWire(t, r, 8, 3)

	// Tamper with block 3's merkle root (re-assembled, not copied), drop
	// block 5 (making 6 and 7 orphans), and append garbage.
	tampered := &btc.Block{Header: blocks[3].Header, Transactions: blocks[3].Transactions}
	tampered.Header.MerkleRoot = btc.DoubleSHA256([]byte("wrong"))
	batch := [][]byte{wire[0], wire[1], wire[2], tampered.Bytes(), wire[4][:40], wire[6], wire[7]}

	serial := New(DefaultConfig(btc.Regtest))
	resp := adapter.Response{}
	for _, w := range batch {
		blk, err := btc.ParseBlock(w)
		if err != nil {
			continue // the serial payload cannot carry undecodable bytes
		}
		resp.Blocks = append(resp.Blocks, adapter.BlockWithHeader{Block: blk, Header: blk.Header})
	}
	if err := serial.ProcessPayload(r.ctx(), resp); err != nil {
		t.Fatal(err)
	}

	pipelined := New(DefaultConfig(btc.Regtest))
	stats, err := pipelined.SyncWire(r.ctx(), batch, ingest.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Accepted != 3 {
		t.Fatalf("accepted %d, want 3 (blocks 0-2)", stats.Accepted)
	}
	// The truncated entry is a parse reject the serial payload never saw;
	// apart from that counter the states must agree.
	if stats.Rejected != 4 { // tampered, truncated, two orphans
		t.Fatalf("rejected %d, want 4", stats.Rejected)
	}
	if pipelined.TipHeight() != serial.TipHeight() || pipelined.IngestedBlocks() != serial.IngestedBlocks() {
		t.Fatalf("pipelined tip/ingested %d/%d, serial %d/%d",
			pipelined.TipHeight(), pipelined.IngestedBlocks(), serial.TipHeight(), serial.IngestedBlocks())
	}
}

// TestProcessPayloadPipelinedMatchesSerial drives two canisters payload by
// payload — blocks, upcoming headers, duplicates — asserting byte-equal
// snapshots after every payload.
func TestProcessPayloadPipelinedMatchesSerial(t *testing.T) {
	r := newRig(t, 7)
	_, blocks := chainWire(t, r, 12, 4)

	serial := New(DefaultConfig(btc.Regtest))
	pipelined := New(DefaultConfig(btc.Regtest))
	deliver := func(resp adapter.Response, workers int) {
		t.Helper()
		if err := serial.ProcessPayload(r.ctx(), resp); err != nil {
			t.Fatal(err)
		}
		if err := pipelined.ProcessPayloadPipelined(r.ctx(), resp, ingest.Config{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snapshotOf(t, serial), snapshotOf(t, pipelined)) {
			t.Fatalf("workers=%d: states diverged", workers)
		}
	}

	// Header-first for the first half, then the blocks (some repeated),
	// then the rest in one batch.
	var hdrs []btc.BlockHeader
	for _, b := range blocks[:6] {
		hdrs = append(hdrs, b.Header)
	}
	deliver(adapter.Response{Next: hdrs}, 2)
	for i, b := range blocks[:6] {
		resp := adapter.Response{Blocks: []adapter.BlockWithHeader{{Block: b, Header: b.Header}}}
		if i%2 == 0 { // duplicate delivery is harmless
			resp.Blocks = append(resp.Blocks, resp.Blocks[0])
		}
		deliver(resp, 1+i%4)
	}
	var rest []adapter.BlockWithHeader
	for _, b := range blocks[6:] {
		rest = append(rest, adapter.BlockWithHeader{Block: b, Header: b.Header})
	}
	deliver(adapter.Response{Blocks: rest}, 8)
}

// TestRestoreSnapshotParallel: the sharded restore must reproduce the
// serial restore exactly — same re-snapshot bytes — at every worker count.
func TestRestoreSnapshotParallel(t *testing.T) {
	r := newRig(t, 11)
	wire, _ := chainWire(t, r, 15, 6)
	can := New(DefaultConfig(btc.Regtest))
	if _, err := can.SyncWire(r.ctx(), wire, ingest.Config{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	snap := snapshotOf(t, can)

	serialRestore, err := RestoreSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(t, serialRestore)
	if !bytes.Equal(want, snap) {
		t.Fatal("serial restore is not byte-stable")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		restored, err := RestoreSnapshotParallel(snap, ingest.Config{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(snapshotOf(t, restored), want) {
			t.Fatalf("workers=%d: parallel restore diverged", workers)
		}
	}
}

// TestFramePrepareEquivalence: applying prepared frames must produce the
// same replica state as applying raw frames, and a corrupt frame must
// surface the same error either way.
func TestFramePrepareEquivalence(t *testing.T) {
	r := newRig(t, 13)
	_, blocks := chainWire(t, r, 10, 4)

	authority := New(DefaultConfig(btc.Regtest))
	var frames [][]byte
	authority.SetStreamSink(func(f *Frame) { frames = append(frames, EncodeFrame(f)) })
	for _, b := range blocks {
		resp := adapter.Response{Blocks: []adapter.BlockWithHeader{{Block: b, Header: b.Header}}}
		if err := authority.ProcessPayload(r.ctx(), resp); err != nil {
			t.Fatal(err)
		}
	}
	if len(frames) == 0 {
		t.Fatal("no frames published")
	}

	plain := New(DefaultConfig(btc.Regtest))
	prepared := New(DefaultConfig(btc.Regtest))
	for i, raw := range frames {
		fa, err := DecodeFrame(raw)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := DecodeFrame(raw)
		if err != nil {
			t.Fatal(err)
		}
		fb.Prepare(ingest.Config{Workers: 4})
		if err := plain.ApplyFrame(fa); err != nil {
			t.Fatal(err)
		}
		if err := prepared.ApplyFrame(fb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snapshotOf(t, plain), snapshotOf(t, prepared)) {
			t.Fatalf("frame %d: prepared apply diverged", i)
		}
	}
	if !bytes.Equal(snapshotOf(t, plain), snapshotOf(t, authority)) {
		t.Fatal("replica did not converge to the authority")
	}
}

// canisterCounters renders every canister_ counter and histogram of c's
// registry, sorted, one per line, for whole-set comparison.
func canisterCounters(c *BitcoinCanister) string {
	snap := c.Metrics().Snapshot()
	var lines []string
	for _, p := range snap.Counters {
		if strings.HasPrefix(p.Name, "canister_") {
			lines = append(lines, fmt.Sprintf("%s %d", p.Name, p.Value))
		}
	}
	for _, h := range snap.Histograms {
		if strings.HasPrefix(h.Name, "canister_") {
			lines = append(lines, fmt.Sprintf("%s count=%d sum=%d buckets=%v", h.Name, h.Count, h.Sum, h.Counts))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestPayloadCountersAgreeAcrossEntryPoints feeds one payload — valid
// blocks, a merkle-tampered block, a block whose header fails validation,
// and an invalid upcoming header — through ProcessPayload,
// ProcessPayloadPipelined and SyncWire, and requires the same canister
// counter set (payloads, payload durations on the registry clock, blocks
// ingested and rejected, headers rejected) from each. SyncWire carries no
// upcoming headers, so it is compared with a serial run of the blocks
// alone.
func TestPayloadCountersAgreeAcrossEntryPoints(t *testing.T) {
	r := newRig(t, 13)
	_, blocks := chainWire(t, r, 3, 3)

	// Each invalid item extends blocks[1], which the payload attaches, so
	// it fails its own check rather than as an orphan.
	tampered := &btc.Block{Header: blocks[2].Header, Transactions: blocks[2].Transactions}
	tampered.Header.MerkleRoot = btc.DoubleSHA256([]byte("wrong"))
	badBits := &btc.Block{Header: blocks[2].Header, Transactions: blocks[2].Transactions}
	badBits.Header.Bits ^= 1
	badHeader := blocks[2].Header
	badHeader.Bits ^= 2

	batch := []*btc.Block{blocks[0], blocks[1], tampered, badBits}
	var withBlocks []adapter.BlockWithHeader
	var wire [][]byte
	for _, b := range batch {
		withBlocks = append(withBlocks, adapter.BlockWithHeader{Block: b, Header: b.Header})
		wire = append(wire, b.Bytes())
	}
	full := adapter.Response{Blocks: withBlocks, Next: []btc.BlockHeader{badHeader}}

	fresh := func() *BitcoinCanister {
		c := New(DefaultConfig(btc.Regtest))
		c.Metrics().SetClock(r.sched.Now)
		return c
	}
	serial, pipelined := fresh(), fresh()
	if err := serial.ProcessPayload(r.ctx(), full); err != nil {
		t.Fatal(err)
	}
	if err := pipelined.ProcessPayloadPipelined(r.ctx(), full, ingest.Config{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	want := canisterCounters(serial)
	for _, line := range []string{
		"canister_payloads_total 1",
		"canister_blocks_ingested_total 2",
		"canister_blocks_rejected_total 2",
		"canister_headers_rejected_total 1",
	} {
		if !strings.Contains(want, line+"\n") {
			t.Fatalf("serial counters lack %q:\n%s", line, want)
		}
	}
	if got := canisterCounters(pipelined); got != want {
		t.Fatalf("ProcessPayloadPipelined counters:\n%s\nProcessPayload counters:\n%s", got, want)
	}

	serialBlocks, synced := fresh(), fresh()
	if err := serialBlocks.ProcessPayload(r.ctx(), adapter.Response{Blocks: withBlocks}); err != nil {
		t.Fatal(err)
	}
	if _, err := synced.SyncWire(r.ctx(), wire, ingest.Config{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if got, want := canisterCounters(synced), canisterCounters(serialBlocks); got != want {
		t.Fatalf("SyncWire counters:\n%s\nProcessPayload counters:\n%s", got, want)
	}
}
