package utxo

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"icbtc/internal/btc"
	"icbtc/internal/statecodec"
)

// Snapshot codec for the UTXO set and the per-block deltas (the stable-
// memory serialization of §III-C's state). Two properties matter beyond
// plain round-tripping:
//
//   - Determinism: map-backed containers are written in canonical order —
//     the interned-script table sorted by script bytes, address buckets
//     sorted by key, bucket entries in their maintained storage order — so
//     two replicas holding identical state produce identical snapshots, and
//     encode→decode→encode is byte-stable.
//   - O(bytes) restore: every entry is written with its interned-script
//     reference and every script with its memoized address key, so decoding
//     performs no address decoding, no ScriptID hashing, and no canonical
//     re-sort. A script's position in the written table becomes its ID.
//     Bucket records are decoded in stored (already canonical) order with
//     running balances accumulated in the same pass; the outpoint table,
//     reference counts and byte estimate are then filled from the records.
//
// Snapshots carry a checksum (see statecodec), so a decoder failure means a
// framing bug or version skew, not silent corruption. Ordering invariants
// are still verified during decode — the check is a linear comparison pass,
// not a sort — because a restored set with a misordered bucket would serve
// wrong pages long after the restore.

// Decode guards: upper bounds on element counts and lengths so a hostile
// length prefix cannot drive allocation (fast-sync restores a snapshot
// received from a peer).
const (
	maxSnapshotEntries   = 1 << 28
	maxSnapshotScriptLen = 1 << 16
	maxSnapshotKeyLen    = 1 << 12

	// Minimum encoded sizes per repeated element, used to bound declared
	// counts against the bytes actually present (Decoder.CountFor): a set
	// entry is txid+vout+value+height plus a one-byte script index; a delta
	// creation drops height but adds a script length prefix; a delta spend
	// is outpoint+value; scripts and buckets are at least two length
	// prefixes.
	setEntryBytes      = btc.HashSize + 4 + 8 + 8 + 1
	deltaCreatedBytes  = btc.HashSize + 4 + 8 + 1
	deltaSpentBytes    = btc.HashSize + 4 + 8
	lengthPrefixedMin2 = 2
)

// EncodeTo appends the set's deterministic encoding to e.
func (s *Set) EncodeTo(e *statecodec.Encoder) {
	e.U8(uint8(s.network))
	// Total entry count up front so decode can pre-size the outpoint table.
	e.Uvarint(uint64(s.outpoints.len()))

	// Interned-script table, sorted by script bytes. Each script carries its
	// memoized address key so restore never re-derives a ScriptID. index
	// maps a script ID to its position in the written table.
	order := make([]uint32, 0, len(s.scriptIDs))
	for _, sid := range s.scriptIDs {
		order = append(order, sid)
	}
	sort.Slice(order, func(i, j int) bool {
		return bytes.Compare(s.scripts[order[i]].bytes, s.scripts[order[j]].bytes) < 0
	})
	index := make([]uint32, len(s.scripts))
	e.Uvarint(uint64(len(order)))
	for i, sid := range order {
		index[sid] = uint32(i)
		e.Bytes(s.scripts[sid].bytes)
		e.String(s.scripts[sid].key)
	}

	// Address buckets, sorted by key; entries in maintained storage order
	// (height ascending with the canonical tie-break), which restore can
	// append verbatim.
	keys := make([]string, 0, len(s.byAddress))
	for k := range s.byAddress {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		b := s.byAddress[k]
		e.String(k)
		e.Uvarint(uint64(len(b.asc)))
		for i := range b.asc {
			r := &b.asc[i]
			e.Raw(r.OutPoint.TxID[:])
			e.U32(r.OutPoint.Vout)
			e.I64(r.Value)
			e.I64(r.Height)
			e.Uvarint(uint64(index[r.sid]))
		}
	}
}

// DecodeSet reads a set encoded by EncodeTo. Restore cost is linear in the
// snapshot bytes: the stored script table becomes the dense script-ID table
// as is (a script's ID is its position, keys included), bucket records are
// appended in stored order, and the outpoint table, reference counts,
// running balances, and byte estimate are rebuilt in the same single pass.
func DecodeSet(d *statecodec.Decoder) (*Set, error) {
	network := btc.Network(d.U8())
	total := d.CountFor(maxSnapshotEntries, setEntryBytes)
	nScripts := d.CountFor(maxSnapshotEntries, lengthPrefixedMin2)
	s := newDecodedSet(network, total, nScripts)
	var err error
	if s.scripts, s.scriptIDs, err = decodeScripts(d, nScripts); err != nil {
		return nil, err
	}

	nBuckets := d.CountFor(maxSnapshotEntries, lengthPrefixedMin2)
	// One arena backs every bucket's record slice: a single allocation and
	// one contiguous zeroing instead of per-bucket garbage. Buckets take
	// capacity-limited sub-slices, so a post-restore insert that outgrows
	// its bucket reallocates that bucket normally.
	arena := make([]record, total)
	decoded := 0
	for i := 0; i < nBuckets; i++ {
		key := d.String(maxSnapshotKeyLen)
		n := d.CountFor(maxSnapshotEntries, setEntryBytes)
		if d.Err() != nil {
			return nil, d.Err()
		}
		if _, dup := s.byAddress[key]; dup {
			return nil, fmt.Errorf("utxo: snapshot bucket %q duplicated", key)
		}
		if decoded+n > total {
			return nil, fmt.Errorf("utxo: snapshot bucket %q overflows declared entry count %d", key, total)
		}
		b := &bucket{asc: arena[decoded : decoded+n : decoded+n]}
		if err := decodeBucket(d, key, b, nScripts); err != nil {
			return nil, err
		}
		if n > 0 {
			s.byAddress[key] = b
		}
		decoded += n
	}
	if decoded != total {
		return nil, fmt.Errorf("utxo: snapshot declared %d entries, decoded %d", total, decoded)
	}
	if err := s.finishDecode(arena); err != nil {
		return nil, err
	}
	return s, d.Err()
}

// newDecodedSet returns an empty set pre-sized from a snapshot's counts:
// incremental growth would re-place the whole outpoint table log(n) times
// and dominate restore. (maxSnapshotEntries keeps script IDs in uint32.)
func newDecodedSet(network btc.Network, total, nScripts int) *Set {
	return &Set{
		network:   network,
		outpoints: newOpTable(total),
		byAddress: make(map[string]*bucket, nScripts),
	}
}

// decodeScripts reads the stored script table into a dense script-ID table
// and its by-bytes index.
func decodeScripts(d *statecodec.Decoder, n int) ([]internedScript, map[string]uint32, error) {
	scripts := make([]internedScript, 0, n)
	ids := make(map[string]uint32, n)
	for i := 0; i < n; i++ {
		raw := d.Bytes(maxSnapshotScriptLen)
		key := d.String(maxSnapshotKeyLen)
		if d.Err() != nil {
			return nil, nil, d.Err()
		}
		cp := make([]byte, len(raw))
		copy(cp, raw)
		if _, dup := ids[string(cp)]; dup {
			return nil, nil, fmt.Errorf("utxo: snapshot script %d duplicated", i)
		}
		ids[string(cp)] = uint32(i)
		scripts = append(scripts, internedScript{bytes: cp, key: key})
	}
	return scripts, ids, nil
}

// decodeBucket fills b.asc, whose length is the bucket's entry count, from
// the stored records, accumulating the running balance and verifying the
// storage order and every script index against the table size.
func decodeBucket(d *statecodec.Decoder, key string, b *bucket, nScripts int) error {
	for j := range b.asc {
		// One bounds-checked read covers the entry's fixed-width fields
		// (txid, vout, value, height); only the script index varints.
		fields := d.Raw(btc.HashSize + 4 + 8 + 8)
		si := d.Uvarint()
		if d.Err() != nil {
			return d.Err()
		}
		if si >= uint64(nScripts) {
			return fmt.Errorf("utxo: snapshot script index %d out of range", si)
		}
		r := &b.asc[j]
		copy(r.OutPoint.TxID[:], fields[:btc.HashSize])
		r.OutPoint.Vout = binary.LittleEndian.Uint32(fields[btc.HashSize:])
		r.Value = int64(binary.LittleEndian.Uint64(fields[btc.HashSize+4:]))
		r.Height = int64(binary.LittleEndian.Uint64(fields[btc.HashSize+12:]))
		r.sid = uint32(si)
		if j > 0 && !storageLess(&b.asc[j-1], r) {
			return fmt.Errorf("utxo: snapshot bucket %q not in storage order at entry %d", key, j)
		}
		b.balance += r.Value
	}
	return nil
}

// finishDecode indexes every decoded record (the arena all buckets slice)
// in the outpoint table, rejecting a duplicate outpoint, counts references
// per script, rejecting a script no entry references (a set never holds
// one), and computes the byte estimate from the reference counts.
func (s *Set) finishDecode(arena []record) error {
	if op, ok := s.outpoints.fill(arena); !ok {
		return fmt.Errorf("utxo: snapshot outpoint %s duplicated", op)
	}
	for i := range arena {
		s.scripts[arena[i].sid].refs++
	}
	s.approxBytes = int64(len(arena)) * perUTXOOverhead
	for i := range s.scripts {
		sc := &s.scripts[i]
		if sc.refs == 0 {
			return fmt.Errorf("utxo: snapshot script %d referenced by no entry", i)
		}
		s.approxBytes += int64(sc.refs) * int64(len(sc.bytes))
	}
	return nil
}

// --- Sharded parallel decode (fast-sync hydration) ---

// bucketSpan records the byte window a scan pass found for one bucket, so
// shard workers can decode buckets independently.
type bucketSpan struct {
	key        string
	n          int
	start, end int // entry bytes window
	arenaOff   int // the bucket's slot in the shared record arena
}

// DecodeSetParallel reads a set encoded by EncodeTo using up to `workers`
// goroutines: a cheap scan pass records the script-table and bucket byte
// windows, the script table and bucket shards decode concurrently, and the
// outpoint table and reference counts are filled once every shard is in, as
// the serial decoder fills them. The format is unchanged (same bytes
// DecodeSet reads) and the resulting set is identical to DecodeSet's; with
// workers <= 1 it IS DecodeSet.
//
// It preserves every structural check the serial decoder performs
// (duplicate scripts/buckets/outpoints, storage-order violations, script
// index bounds, entry-count accounting, unreferenced scripts), so a
// hostile snapshot is rejected either way.
func DecodeSetParallel(d *statecodec.Decoder, workers int) (*Set, error) {
	if workers <= 1 {
		return DecodeSet(d)
	}
	network := btc.Network(d.U8())
	total := d.CountFor(maxSnapshotEntries, setEntryBytes)
	nScripts := d.CountFor(maxSnapshotEntries, lengthPrefixedMin2)
	if d.Err() != nil {
		return nil, d.Err()
	}
	s := newDecodedSet(network, total, nScripts)

	// Scan the script table: skip length-prefixed fields, record the window.
	scriptsStart := d.Offset()
	for i := 0; i < nScripts; i++ {
		d.Skip(d.Count(maxSnapshotScriptLen))
		d.Skip(d.Count(maxSnapshotKeyLen))
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	sw, err := d.Window(scriptsStart, d.Offset())
	if err != nil {
		return nil, err
	}

	// Decode the script table concurrently with the bucket scan below.
	scriptErr := make(chan error, 1)
	go func() {
		var err error
		s.scripts, s.scriptIDs, err = decodeScripts(sw, nScripts)
		scriptErr <- err
	}()

	// Scan the bucket section: keys, counts, and entry windows. Entries are
	// a fixed 52 bytes plus a script-index varint, so the scan is a skip
	// per entry, no decoding.
	nBuckets := d.CountFor(maxSnapshotEntries, lengthPrefixedMin2)
	spans := make([]bucketSpan, 0, nBuckets)
	seen := make(map[string]struct{}, nBuckets)
	decoded := 0
	for i := 0; i < nBuckets; i++ {
		key := d.String(maxSnapshotKeyLen)
		n := d.CountFor(maxSnapshotEntries, setEntryBytes)
		if d.Err() != nil {
			return nil, d.Err()
		}
		if _, dup := seen[key]; dup {
			return nil, fmt.Errorf("utxo: snapshot bucket %q duplicated", key)
		}
		if n > 0 {
			// The serial decoder only indexes non-empty buckets, so only
			// those can collide.
			seen[key] = struct{}{}
		}
		if decoded+n > total {
			return nil, fmt.Errorf("utxo: snapshot bucket %q overflows declared entry count %d", key, total)
		}
		start := d.Offset()
		for j := 0; j < n; j++ {
			d.Skip(btc.HashSize + 4 + 8 + 8)
			d.Uvarint()
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		spans = append(spans, bucketSpan{key: key, n: n, start: start, end: d.Offset(), arenaOff: decoded})
		decoded += n
	}
	if decoded != total {
		return nil, fmt.Errorf("utxo: snapshot declared %d entries, decoded %d", total, decoded)
	}

	// One arena backs every bucket's record slice, as in the serial
	// decoder; shards fill disjoint sub-slices. Records carry script IDs,
	// which shards bound by the declared table size, so they need not wait
	// for the script table.
	arena := make([]record, total)
	buckets := make([]*bucket, len(spans))
	for i, sp := range spans {
		buckets[i] = &bucket{asc: arena[sp.arenaOff : sp.arenaOff+sp.n : sp.arenaOff+sp.n]}
		if sp.n > 0 {
			s.byAddress[sp.key] = buckets[i]
		}
	}

	// Partition buckets into contiguous shards balanced by entry count and
	// decode them concurrently.
	target := (total + workers - 1) / workers
	if target < 1 {
		target = 1
	}
	var bounds []int // shard k holds buckets [bounds[k], bounds[k+1])
	for lo := 0; lo < len(spans); {
		bounds = append(bounds, lo)
		count := 0
		for lo < len(spans) && (count == 0 || count+spans[lo].n <= target) {
			count += spans[lo].n
			lo++
		}
	}
	bounds = append(bounds, len(spans))
	errs := make([]error, len(bounds)-1)
	var wg sync.WaitGroup
	for k := range errs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := bounds[k]; i < bounds[k+1] && errs[k] == nil; i++ {
				var w *statecodec.Decoder
				if w, errs[k] = d.Window(spans[i].start, spans[i].end); errs[k] == nil {
					errs[k] = decodeBucket(w, spans[i].key, buckets[i], nScripts)
				}
			}
		}(k)
	}
	wg.Wait()
	if err := <-scriptErr; err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := s.finishDecode(arena); err != nil {
		return nil, err
	}
	return s, d.Err()
}

// EncodeBlockDelta appends a block delta's deterministic encoding: created
// outputs per address (sorted by key, lists in block order) followed by
// spent outpoints per address. Created outputs all sit at the delta's own
// height, so only the outpoint, value, and script are stored per entry; the
// outpoint index and entry counts are rebuilt on decode.
func EncodeBlockDelta(e *statecodec.Encoder, bd *BlockDelta) {
	e.I64(bd.height)

	created := make([]string, 0, len(bd.createdByAddr))
	for k := range bd.createdByAddr {
		created = append(created, k)
	}
	sort.Strings(created)
	e.Uvarint(uint64(len(created)))
	for _, k := range created {
		list := bd.createdByAddr[k]
		e.String(k)
		e.Uvarint(uint64(len(list)))
		for i := range list {
			e.Raw(list[i].OutPoint.TxID[:])
			e.U32(list[i].OutPoint.Vout)
			e.I64(list[i].Value)
			e.Bytes(list[i].PkScript)
		}
	}

	spent := make([]string, 0, len(bd.spentByAddr))
	for k := range bd.spentByAddr {
		spent = append(spent, k)
	}
	sort.Strings(spent)
	e.Uvarint(uint64(len(spent)))
	for _, k := range spent {
		list := bd.spentByAddr[k]
		e.String(k)
		e.Uvarint(uint64(len(list)))
		for i := range list {
			e.Raw(list[i].OutPoint.TxID[:])
			e.U32(list[i].OutPoint.Vout)
			e.I64(list[i].Value)
		}
	}
}

// DecodeBlockDelta reads a delta encoded by EncodeBlockDelta, rebuilding
// the by-outpoint index and the entry count without re-deriving any address
// key (keys were stored alongside the lists).
func DecodeBlockDelta(d *statecodec.Decoder) (*BlockDelta, error) {
	bd := &BlockDelta{
		height:        d.I64(),
		createdByAddr: make(map[string][]UTXO),
		spentByAddr:   make(map[string][]SpentOutPoint),
		createdByOp:   make(map[btc.OutPoint]UTXO),
	}

	nCreated := d.CountFor(maxSnapshotEntries, lengthPrefixedMin2)
	for i := 0; i < nCreated; i++ {
		key := d.String(maxSnapshotKeyLen)
		n := d.CountFor(maxSnapshotEntries, deltaCreatedBytes)
		if d.Err() != nil {
			return nil, d.Err()
		}
		if _, dup := bd.createdByAddr[key]; dup {
			return nil, fmt.Errorf("utxo: delta snapshot created key %q duplicated", key)
		}
		list := make([]UTXO, 0, n)
		for j := 0; j < n; j++ {
			var op btc.OutPoint
			copy(op.TxID[:], d.Raw(btc.HashSize))
			op.Vout = d.U32()
			value := d.I64()
			raw := d.Bytes(maxSnapshotScriptLen)
			if d.Err() != nil {
				return nil, d.Err()
			}
			script := make([]byte, len(raw))
			copy(script, raw)
			u := UTXO{OutPoint: op, Value: value, PkScript: script, Height: bd.height}
			list = append(list, u)
			if _, dup := bd.createdByOp[op]; dup {
				return nil, fmt.Errorf("utxo: delta snapshot created outpoint %s duplicated", op)
			}
			bd.createdByOp[op] = u
		}
		bd.createdByAddr[key] = list
		bd.entries += len(list)
	}

	nSpent := d.CountFor(maxSnapshotEntries, lengthPrefixedMin2)
	for i := 0; i < nSpent; i++ {
		key := d.String(maxSnapshotKeyLen)
		n := d.CountFor(maxSnapshotEntries, deltaSpentBytes)
		if d.Err() != nil {
			return nil, d.Err()
		}
		if _, dup := bd.spentByAddr[key]; dup {
			return nil, fmt.Errorf("utxo: delta snapshot spent key %q duplicated", key)
		}
		list := make([]SpentOutPoint, 0, n)
		for j := 0; j < n; j++ {
			var sp SpentOutPoint
			copy(sp.OutPoint.TxID[:], d.Raw(btc.HashSize))
			sp.OutPoint.Vout = d.U32()
			sp.Value = d.I64()
			list = append(list, sp)
		}
		bd.spentByAddr[key] = list
		bd.entries += len(list)
	}
	return bd, d.Err()
}
