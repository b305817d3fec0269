package utxo

import (
	"hash/maphash"
	"math/bits"

	"icbtc/internal/btc"
)

// opTable is the set's authoritative outpoint index: an open-addressed hash
// table of fixed-size, pointer-free slots. Each slot carries the whole
// stored record (value, height, script ID), so a lookup is one probe
// sequence into one flat array, and the garbage collector never scans it.
//
//   - Linear probing from the outpoint's home slot; the load factor stays at
//     or below 3/4, so probe sequences stay short.
//   - Deletion shifts the following cluster members back instead of leaving
//     tombstones, so lookups never slow down under churn.
//   - Capacity is a power of two sized from the entry count (decode passes
//     the snapshot's count up front), doubling on growth; it never shrinks.
//   - Home slots come from a per-process keyed hash (opSeed), so a miner
//     grinding txids cannot predict which outpoints share a probe cluster.
type opTable struct {
	slots []opSlot
	n     int
}

// opSlot is one table slot: 56 bytes, no pointers.
type opSlot struct {
	op btc.OutPoint
	// sid1 is the record's script ID plus one; zero marks an empty slot.
	sid1   uint32
	value  int64
	height int64
}

// opSeed keys the outpoint hash for the life of the process.
var opSeed = maphash.MakeSeed()

// opTableMinSlots is the capacity of an empty table.
const opTableMinSlots = 8

// newOpTable returns a table that holds n records without growing.
func newOpTable(n int) opTable {
	size := opTableMinSlots
	for n*4 > size*3 {
		size *= 2
	}
	return opTable{slots: make([]opSlot, size)}
}

// opHash is the keyed hash of an outpoint. The vout is folded in with an
// odd multiplier, so outputs of one transaction get distinct home slots.
func opHash(op *btc.OutPoint) uint64 {
	return maphash.Bytes(opSeed, op.TxID[:]) ^ uint64(op.Vout)*0x9e3779b97f4a7c15
}

func (t *opTable) len() int { return t.n }

// find returns the slot holding op, or the empty slot ending its probe
// sequence, and whether op was found.
func (t *opTable) find(op *btc.OutPoint) (int, bool) {
	mask := len(t.slots) - 1
	for i := int(opHash(op)) & mask; ; i = (i + 1) & mask {
		sl := &t.slots[i]
		if sl.sid1 == 0 {
			return i, false
		}
		if sl.op == *op {
			return i, true
		}
	}
}

// get returns the record stored for op.
func (t *opTable) get(op btc.OutPoint) (record, bool) {
	i, ok := t.find(&op)
	if !ok {
		return record{}, false
	}
	return t.slots[i].record(), true
}

// has reports whether op is stored.
func (t *opTable) has(op btc.OutPoint) bool {
	_, ok := t.find(&op)
	return ok
}

// insert stores r, reporting false (and storing nothing) when its outpoint
// is already present.
func (t *opTable) insert(r record) bool {
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	i, found := t.find(&r.OutPoint)
	if found {
		return false
	}
	t.slots[i] = opSlot{op: r.OutPoint, sid1: r.sid + 1, value: r.Value, height: r.Height}
	t.n++
	return true
}

// fill inserts recs into the table, which must be empty and sized for
// them, reporting the first duplicate outpoint. One insert per record in
// arbitrary order touches a random slot each time, a cache miss on a large
// table; fill instead groups the records by the table region their home
// slot falls in (a counting sort on the home's high bits) and inserts
// region by region, so each region's probes stay in cache.
func (t *opTable) fill(recs []record) (btc.OutPoint, bool) {
	mask := len(t.slots) - 1
	// Regions of at least 128 slots (7 KiB), at most 4096 of them.
	regions, shift := 1, 0
	for regions < 4096 && len(t.slots)/(2*regions) >= 128 {
		regions *= 2
		shift++
	}
	shift = bits.Len(uint(mask)) - shift
	homes := make([]uint32, len(recs))
	starts := make([]int, regions+1)
	for i := range recs {
		h := uint32(int(opHash(&recs[i].OutPoint)) & mask)
		homes[i] = h
		starts[h>>shift+1]++
	}
	for r := 1; r <= regions; r++ {
		starts[r] += starts[r-1]
	}
	order := make([]uint32, len(recs))
	for i, h := range homes {
		order[starts[h>>shift]] = uint32(i)
		starts[h>>shift]++
	}
	for _, i := range order {
		r := &recs[i]
		j := int(homes[i])
		for ; t.slots[j].sid1 != 0; j = (j + 1) & mask {
			if t.slots[j].op == r.OutPoint {
				return r.OutPoint, false
			}
		}
		t.slots[j] = opSlot{op: r.OutPoint, sid1: r.sid + 1, value: r.Value, height: r.Height}
		t.n++
	}
	return btc.OutPoint{}, true
}

// grow doubles the capacity and re-places every record.
func (t *opTable) grow() {
	old := t.slots
	t.slots = make([]opSlot, 2*len(old))
	mask := len(t.slots) - 1
	for k := range old {
		if old[k].sid1 == 0 {
			continue
		}
		i := int(opHash(&old[k].op)) & mask
		for t.slots[i].sid1 != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = old[k]
	}
}

// remove deletes op and returns its record. The hole is closed by backward
// shift: each later member of the cluster whose home slot does not lie
// cyclically in (hole, member] moves into the hole, which then moves to
// where that member was, until an empty slot ends the cluster.
func (t *opTable) remove(op btc.OutPoint) (record, bool) {
	hole, ok := t.find(&op)
	if !ok {
		return record{}, false
	}
	r := t.slots[hole].record()
	mask := len(t.slots) - 1
	for j := (hole + 1) & mask; t.slots[j].sid1 != 0; j = (j + 1) & mask {
		home := int(opHash(&t.slots[j].op)) & mask
		if (j-home)&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = opSlot{}
	t.n--
	return r, true
}

// each visits every record in slot order; visit returning false stops the
// walk. visit must not modify the table.
func (t *opTable) each(visit func(record) bool) {
	for i := range t.slots {
		if t.slots[i].sid1 != 0 && !visit(t.slots[i].record()) {
			return
		}
	}
}

func (sl *opSlot) record() record {
	return record{Value: sl.value, Height: sl.height, OutPoint: sl.op, sid: sl.sid1 - 1}
}
