package canister

import (
	"fmt"

	"icbtc/internal/adapter"
	"icbtc/internal/btc"
	"icbtc/internal/ic"
	"icbtc/internal/ingest"
)

// Pipelined ingest: the canister's write path run through internal/ingest.
// The CPU-bound per-block work — wire decode, txid/Merkle double-hashing,
// script-ID derivation, delta prebuild — happens on pipeline workers over
// a bounded prefetch window, while Algorithm 2's state mutation (header
// validation against the tree, attach, anchor advance, stable fold) stays
// strictly sequential on the calling goroutine. Accept/reject decisions,
// counters, stream frames, and the resulting state are byte-identical to
// the serial ProcessPayload at every worker count; internal/difftest holds
// the serial path as the oracle and randomizes workers/windows to enforce
// exactly that.

// SyncStats summarizes one pipelined catch-up batch.
type SyncStats struct {
	// Accepted counts blocks attached to the tree; Rejected counts blocks
	// refused (validation failure, unavailable predecessor, undecodable
	// wire bytes).
	Accepted, Rejected int
}

// predictHeights computes, for each block in a batch, the height it would
// attach at: parent already in the tree → parent height + 1, parent
// earlier in the batch → its predicted height + 1, unknown parent → -1
// (the sequential applier will reject the orphan before needing a delta).
// Tree heights are immutable once a node is inserted, so predictions made
// before the pipeline starts stay correct for every block that is actually
// accepted.
func (c *BitcoinCanister) predictHeights(hashes, prevs []btc.Hash) []int64 {
	heights := make([]int64, len(hashes))
	batch := make(map[btc.Hash]int64, len(hashes))
	for i := range hashes {
		h := int64(-1)
		if ph, ok := batch[prevs[i]]; ok && ph >= 0 {
			h = ph + 1
		} else if node := c.tree.Get(prevs[i]); node != nil {
			h = node.Height + 1
		}
		heights[i] = h
		if _, dup := batch[hashes[i]]; !dup {
			batch[hashes[i]] = h
		}
	}
	return heights
}

// preparer returns the canister's block Preparer for cfg's worker count,
// building it on first use and whenever the count changes.
func (c *BitcoinCanister) preparer(cfg ingest.Config) *ingest.Preparer {
	if workers := cfg.NormalizedWorkers(); c.prep == nil || c.prep.Workers() != workers {
		c.prep = ingest.NewPreparer(c.cfg.Network, workers)
	}
	return c.prep
}

// ProcessPayloadPipelined is ProcessPayload with the per-block CPU work
// fanned out across cfg.Workers: behaviorally identical (same accept and
// reject decisions, same metering, same stream frames, same state) for any
// worker count. With cfg.Workers <= 1 the pipeline degenerates to the
// serial loop.
func (c *BitcoinCanister) ProcessPayloadPipelined(ctx *ic.CallContext, payload any, cfg ingest.Config) error {
	resp, ok := payload.(adapter.Response)
	if !ok {
		return fmt.Errorf("canister: unexpected payload type %T", payload)
	}
	if cfg.Obs == nil {
		cfg.Obs = c.met.reg // pipeline stages land in the canister registry
	}
	defer c.countPayload()()
	c.ageOutgoing()
	c.adapterHealth = resp.Health
	if len(resp.Blocks) > 0 || len(resp.Next) > 0 {
		c.invalidateReadCaches()
	}

	if len(resp.Blocks) > 0 {
		hashes := make([]btc.Hash, len(resp.Blocks))
		prevs := make([]btc.Hash, len(resp.Blocks))
		for i := range resp.Blocks {
			hashes[i] = resp.Blocks[i].Header.BlockHash()
			prevs[i] = resp.Blocks[i].Header.PrevBlock
		}
		heights := c.predictHeights(hashes, prevs)
		prep := c.preparer(cfg)
		err := ingest.Map(len(resp.Blocks), cfg,
			func(worker, i int) ingest.PreparedBlock {
				if resp.Blocks[i].Block == nil {
					return ingest.PreparedBlock{} // acceptBlock rejects it
				}
				return prep.Prepare(worker, resp.Blocks[i].Block, heights[i])
			},
			func(i int, pb ingest.PreparedBlock) error {
				if err := c.acceptBlock(ctx, resp.Blocks[i], pb.Delta); err != nil {
					c.rejectBlock()
					return nil
				}
				c.advanceAnchor(ctx)
				return nil
			})
		if err != nil {
			return err // unreachable: the consumer never errors
		}
	}
	for i := range resp.Next {
		if err := c.acceptHeader(ctx, resp.Next[i]); err != nil {
			c.rejectHeader()
		}
	}
	c.updateSynced()
	c.flushFrame()
	return nil
}

// SyncWire ingests a batch of wire-encoded blocks through the pipeline —
// the catch-up path for a canister (or a bootstrapping replica) that is
// many blocks behind: workers decode, hash, and prebuild deltas over the
// prefetch window; the applier attaches and folds sequentially. The final
// state is byte-identical to parsing each block and feeding it through
// serial ProcessPayload. Undecodable entries count as rejected blocks.
func (c *BitcoinCanister) SyncWire(ctx *ic.CallContext, wire [][]byte, cfg ingest.Config) (SyncStats, error) {
	var stats SyncStats
	if len(wire) == 0 {
		return stats, nil
	}
	if cfg.Obs == nil {
		cfg.Obs = c.met.reg
	}
	defer c.countPayload()()
	c.ageOutgoing()
	c.invalidateReadCaches()

	// Height prediction needs only the 80-byte headers; parse them up
	// front (cheap) so workers know each block's attach height.
	hashes := make([]btc.Hash, len(wire))
	prevs := make([]btc.Hash, len(wire))
	bad := make([]bool, len(wire))
	for i := range wire {
		if len(wire[i]) < btc.BlockHeaderSize {
			bad[i] = true
			continue
		}
		hdr, err := btc.ParseBlockHeader(wire[i][:btc.BlockHeaderSize])
		if err != nil {
			bad[i] = true
			continue
		}
		hashes[i] = hdr.BlockHash()
		prevs[i] = hdr.PrevBlock
	}
	heights := c.predictHeights(hashes, prevs)

	prep := c.preparer(cfg)
	err := ingest.Map(len(wire), cfg,
		func(worker, i int) ingest.PreparedBlock {
			if bad[i] {
				return ingest.PreparedBlock{Err: fmt.Errorf("canister: sync block %d: undecodable header", i)}
			}
			return prep.PrepareWire(worker, wire[i], heights[i])
		},
		func(i int, pb ingest.PreparedBlock) error {
			if pb.Err != nil || pb.Block == nil {
				stats.Rejected++
				c.rejectBlock()
				return nil
			}
			bw := adapter.BlockWithHeader{Block: pb.Block, Header: pb.Block.Header}
			if err := c.acceptBlock(ctx, bw, pb.Delta); err != nil {
				stats.Rejected++
				c.rejectBlock()
				return nil
			}
			stats.Accepted++
			c.advanceAnchor(ctx)
			return nil
		})
	if err != nil {
		return stats, err // unreachable: the consumer never errors
	}
	c.updateSynced()
	c.flushFrame()
	return stats, nil
}
