package utxo

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"icbtc/internal/btc"
)

// checkTableInvariants verifies the table's structure: the count matches
// the occupied slots, and every record is reachable from its home slot
// without crossing an empty slot (what linear probing and backward-shift
// deletion must preserve).
func checkTableInvariants(t *testing.T, tb *opTable) {
	t.Helper()
	mask := len(tb.slots) - 1
	used := 0
	for i := range tb.slots {
		if tb.slots[i].sid1 == 0 {
			continue
		}
		used++
		for j := int(opHash(&tb.slots[i].op)) & mask; j != i; j = (j + 1) & mask {
			if tb.slots[j].sid1 == 0 {
				t.Fatalf("slot %d (%s) unreachable: empty slot %d on its probe path", i, tb.slots[i].op, j)
			}
		}
	}
	if used != tb.n {
		t.Fatalf("table counts %d records, %d slots occupied", tb.n, used)
	}
	if tb.n*4 > len(tb.slots)*3 {
		t.Fatalf("load %d/%d above 3/4", tb.n, len(tb.slots))
	}
}

// homeAt returns an outpoint whose home slot in a table of size slots is
// home, found by search.
func homeAt(rng *rand.Rand, slots, home int) btc.OutPoint {
	for {
		var op btc.OutPoint
		rng.Read(op.TxID[:])
		if int(opHash(&op))&(slots-1) == home {
			return op
		}
	}
}

// TestOpTableBackwardShiftWraps pins the wrap-around case: three records
// homed at the last slot of an 8-slot table occupy slots 7, 0 and 1;
// deleting the first must shift the other two back across the end.
func TestOpTableBackwardShiftWraps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tb := newOpTable(0)
	if len(tb.slots) != opTableMinSlots {
		t.Fatalf("empty table has %d slots", len(tb.slots))
	}
	last := len(tb.slots) - 1
	var ops []btc.OutPoint
	for i := 0; i < 3; i++ {
		op := homeAt(rng, len(tb.slots), last)
		ops = append(ops, op)
		if !tb.insert(record{OutPoint: op, Value: int64(i), sid: uint32(i)}) {
			t.Fatal("insert reported a duplicate")
		}
	}
	for i, want := range []int{last, 0, 1} {
		if tb.slots[want].op != ops[i] {
			t.Fatalf("record %d not in slot %d", i, want)
		}
	}
	if r, ok := tb.remove(ops[0]); !ok || r.Value != 0 {
		t.Fatalf("remove: %+v %v", r, ok)
	}
	checkTableInvariants(t, &tb)
	if tb.slots[last].op != ops[1] || tb.slots[0].op != ops[2] || tb.slots[1].sid1 != 0 {
		t.Fatal("backward shift did not move the cluster back across the end")
	}
	for i, op := range ops[1:] {
		if r, ok := tb.get(op); !ok || r.Value != int64(i+1) || r.sid != uint32(i+1) {
			t.Fatalf("get %d after shift: %+v %v", i+1, r, ok)
		}
	}
}

// TestOpTableMatchesMapOracle drives the table and a map through random
// sequences of insert, duplicate insert, get and delete. The table starts
// at its minimum size and grows mid-sequence; half the key pool is homed
// at the end of the initial slot array, so clusters and backward shifts
// wrap past its end. After every operation the two agree on the result,
// and Len and the table invariants hold; at the end a table filled in bulk
// from the oracle answers the same.
func TestOpTableMatchesMapOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		tb := newOpTable(0)
		oracle := make(map[btc.OutPoint]record)
		pool := make([]btc.OutPoint, 96)
		for i := range pool {
			if i%2 == 0 {
				pool[i] = homeAt(rng, opTableMinSlots, opTableMinSlots-1-rng.Intn(2))
			} else {
				rng.Read(pool[i].TxID[:])
				pool[i].Vout = uint32(rng.Intn(4))
			}
		}
		grew := false
		for step := 0; step < 4000; step++ {
			op := pool[rng.Intn(len(pool))]
			want, present := oracle[op]
			switch rng.Intn(4) {
			case 0, 1: // insert, a duplicate when present
				r := record{OutPoint: op, Value: rng.Int63(), Height: rng.Int63n(1000), sid: uint32(rng.Intn(50))}
				if ok := tb.insert(r); ok == present {
					t.Fatalf("seed %d step %d: insert %s returned %v, oracle holds it: %v", seed, step, op, ok, present)
				}
				if !present {
					oracle[op] = r
				}
			case 2:
				got, ok := tb.get(op)
				if ok != present || got != want || tb.has(op) != present {
					t.Fatalf("seed %d step %d: get %s = %+v %v, oracle %+v %v", seed, step, op, got, ok, want, present)
				}
			case 3:
				got, ok := tb.remove(op)
				if ok != present || got != want {
					t.Fatalf("seed %d step %d: remove %s = %+v %v, oracle %+v %v", seed, step, op, got, ok, want, present)
				}
				delete(oracle, op)
			}
			if tb.len() != len(oracle) {
				t.Fatalf("seed %d step %d: Len %d, oracle %d", seed, step, tb.len(), len(oracle))
			}
			grew = grew || len(tb.slots) > opTableMinSlots
			checkTableInvariants(t, &tb)
		}
		if !grew {
			t.Fatalf("seed %d: the table never grew", seed)
		}
		seen := 0
		tb.each(func(r record) bool {
			if oracle[r.OutPoint] != r {
				t.Fatalf("seed %d: each visited %+v, oracle %+v", seed, r, oracle[r.OutPoint])
			}
			seen++
			return true
		})
		if seen != len(oracle) {
			t.Fatalf("seed %d: each visited %d records, oracle %d", seed, seen, len(oracle))
		}

		recs := make([]record, 0, len(oracle))
		for _, r := range oracle {
			recs = append(recs, r)
		}
		bulk := newOpTable(len(recs))
		if _, ok := bulk.fill(recs); !ok {
			t.Fatalf("seed %d: fill reported a duplicate", seed)
		}
		checkTableInvariants(t, &bulk)
		for op, want := range oracle {
			if got, ok := bulk.get(op); !ok || got != want {
				t.Fatalf("seed %d: filled table get %s = %+v %v, want %+v", seed, op, got, ok, want)
			}
		}
		if len(recs) > 0 {
			dup := newOpTable(len(recs) + 1)
			if op, ok := dup.fill(append(recs, recs[0])); ok || op != recs[0].OutPoint {
				t.Fatalf("seed %d: fill missed the duplicate (%s, %v)", seed, op, ok)
			}
		}
	}
}

// pointerFree reports whether values of type t hold no pointers.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return t.Len() == 0 || pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// TestStoredLayoutIsPointerFree guards the per-output layout: bucket
// records and outpoint-table slots must hold no pointers (so the garbage
// collector never scans the set's bulk) and stay 56 bytes.
func TestStoredLayoutIsPointerFree(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(record{}), reflect.TypeOf(opSlot{})} {
		if !pointerFree(typ) {
			t.Errorf("%s holds a pointer", typ)
		}
		if typ.Size() != 56 {
			t.Errorf("%s is %d bytes, want 56", typ, typ.Size())
		}
	}
}

// TestScriptIDReuse spends every output of some scripts, which frees their
// IDs, then interns new scripts, which must take those IDs. The churned set
// must snapshot byte-identically to a fresh set holding the same outputs,
// and count exactly its live scripts.
func TestScriptIDReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	scripts := make([][]byte, 15)
	for i := range scripts {
		var h [20]byte
		rng.Read(h[:])
		scripts[i] = btc.PayToAddrScript(btc.NewP2PKHAddress(h, btc.Regtest))
	}
	type out struct {
		op     btc.OutPoint
		script int
		value  int64
		height int64
	}
	var live []out
	churned := New(btc.Regtest)
	add := func(script int) {
		o := out{script: script, value: rng.Int63n(1e8), height: rng.Int63n(100)}
		rng.Read(o.op.TxID[:])
		if err := churned.Add(o.op, btc.TxOut{Value: o.value, PkScript: scripts[script]}, o.height); err != nil {
			t.Fatal(err)
		}
		live = append(live, o)
	}
	for i := 0; i < 200; i++ {
		add(i % 10)
	}
	// Spend every output of scripts 0-4, and a few of the others.
	kept := live[:0]
	for _, o := range live {
		if o.script < 5 || rng.Intn(5) == 0 {
			if _, err := churned.Remove(o.op); err != nil {
				t.Fatal(err)
			}
			continue
		}
		kept = append(kept, o)
	}
	live = kept
	if len(churned.free) != 5 {
		t.Fatalf("%d free script IDs after spending 5 scripts, want 5", len(churned.free))
	}
	for i := 0; i < 100; i++ {
		add(5 + i%10)
	}
	if len(churned.scripts) != 10 || len(churned.free) != 0 {
		t.Fatalf("script table holds %d IDs with %d free, want 10 and 0: released IDs were not reused",
			len(churned.scripts), len(churned.free))
	}

	fresh := New(btc.Regtest)
	distinct := make(map[int]bool)
	for _, i := range rng.Perm(len(live)) {
		o := live[i]
		if err := fresh.Add(o.op, btc.TxOut{Value: o.value, PkScript: scripts[o.script]}, o.height); err != nil {
			t.Fatal(err)
		}
		distinct[o.script] = true
	}
	if !bytes.Equal(encodeSet(churned), encodeSet(fresh)) {
		t.Fatal("churned set snapshots differently from a fresh set with the same contents")
	}
	if churned.InternedScripts() != len(distinct) {
		t.Fatalf("InternedScripts %d, live scripts %d", churned.InternedScripts(), len(distinct))
	}
	assertSetsEqual(t, fresh, churned)
}
