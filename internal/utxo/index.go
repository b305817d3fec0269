package utxo

import (
	"fmt"
	"sort"

	"icbtc/internal/btc"
)

// Ordered address index. Each address bucket keeps its UTXOs in a slice
// sorted ascending by (height, txid, vout). Ingestion order matches this
// order almost everywhere — heights ascend block over block and a
// transaction's outputs arrive vout-ascending — so inserts are appends (or
// short moves within one height group), never head-of-slice shifts. The
// canonical get_utxos order (height *descending*, txid/vout ascending) is
// streamed by walking the height groups back-to-front while emitting each
// group forward; a running balance total makes the stable part of
// get_balance O(1). Entries are flat records (see record in set.go); the
// iterators materialize each UTXO as they emit it.

// bucket is the per-address ordered container plus its running balance.
type bucket struct {
	// asc is sorted by storageLess.
	asc     []record
	balance int64
}

// storageLess is the bucket's storage order: height ascending with the
// canonical txid/vout tie-break. Within one height group the storage order
// IS the canonical order.
func storageLess(a, b *record) bool {
	if a.Height != b.Height {
		return a.Height < b.Height
	}
	if a.OutPoint.TxID != b.OutPoint.TxID {
		return lessHash(a.OutPoint.TxID, b.OutPoint.TxID)
	}
	return a.OutPoint.Vout < b.OutPoint.Vout
}

// insert places u at its ordered position. Outputs arrive overwhelmingly in
// storage order (ascending heights, ascending vouts), so the append fast
// path is checked before the binary search.
func (b *bucket) insert(u record) {
	n := len(b.asc)
	if n == 0 || storageLess(&b.asc[n-1], &u) {
		b.asc = append(b.asc, u)
		return
	}
	i := sort.Search(n, func(i int) bool { return storageLess(&u, &b.asc[i]) })
	b.asc = append(b.asc, record{})
	copy(b.asc[i+1:], b.asc[i:])
	b.asc[i] = u
}

// insertBatch merges a batch of new entries, sorted by storageLess, into
// the bucket in one pass: one grow, one backward merge — instead of a
// binary search plus memmove per entry, which made deep buckets quadratic
// in the batch size. Batches from a block fold share one height, but the
// merge handles arbitrary sorted input.
func (b *bucket) insertBatch(us []record) {
	old := len(b.asc)
	if old == 0 || storageLess(&b.asc[old-1], &us[0]) {
		// Everything lands after the existing entries — the common case:
		// block heights ascend, so a fold appends.
		b.asc = append(b.asc, us...)
		return
	}
	b.asc = append(b.asc, us...)
	// Backward in-place merge: keys are unique (outpoints), so stability is
	// moot and strict less suffices.
	i, j := old-1, len(us)-1
	for k := len(b.asc) - 1; j >= 0; k-- {
		if i >= 0 && storageLess(&us[j], &b.asc[i]) {
			b.asc[k] = b.asc[i]
			i--
		} else {
			b.asc[k] = us[j]
			j--
		}
	}
}

// remove deletes the element with the given outpoint and height, reporting
// whether it was present.
func (b *bucket) remove(op btc.OutPoint, height int64) bool {
	probe := record{OutPoint: op, Height: height}
	n := len(b.asc)
	i := sort.Search(n, func(i int) bool { return !storageLess(&b.asc[i], &probe) })
	if i >= n || b.asc[i].OutPoint != op || b.asc[i].Height != height {
		return false
	}
	copy(b.asc[i:], b.asc[i+1:])
	b.asc = b.asc[:n-1]
	return true
}

// AddressIter streams one address's stable UTXOs in canonical
// (height-descending) order: height groups are visited from the top of the
// storage slice downwards, each group emitted forward (its storage order is
// already canonical). The zero value is an exhausted iterator.
type AddressIter struct {
	set *Set
	asc []record
	// cur indexes the next element of the current group [groupStart,
	// groupEnd); when the group is exhausted the iterator advances to the
	// group ending at groupStart.
	cur, groupEnd, groupStart int
}

// Next returns the next UTXO in canonical order.
func (it *AddressIter) Next() (UTXO, bool) {
	r := it.next()
	if r == nil {
		return UTXO{}, false
	}
	return it.set.utxo(r), true
}

// next advances to the next stored record, nil when exhausted.
func (it *AddressIter) next() *record {
	if it.cur >= it.groupEnd {
		if it.groupStart == 0 {
			return nil
		}
		it.groupEnd = it.groupStart
		h := it.asc[it.groupEnd-1].Height
		it.groupStart = sort.Search(it.groupEnd, func(i int) bool { return it.asc[i].Height >= h })
		it.cur = it.groupStart
	}
	r := &it.asc[it.cur]
	it.cur++
	return r
}

// Remaining returns the number of entries left in the stream.
func (it *AddressIter) Remaining() int { return (it.groupEnd - it.cur) + it.groupStart }

// AddressIter returns an iterator over an address's UTXOs from the top of
// the canonical order.
func (s *Set) AddressIter(addressKey string) AddressIter {
	b := s.byAddress[addressKey]
	if b == nil {
		return AddressIter{}
	}
	n := len(b.asc)
	return AddressIter{set: s, asc: b.asc, cur: n, groupEnd: n, groupStart: n}
}

// cursorStorageAfter reports whether u sits strictly after the cursor
// position in *storage* order; monotone along a bucket slice.
func cursorStorageAfter(c pageCursor, u *record) bool {
	if u.Height != c.height {
		return u.Height > c.height
	}
	if u.OutPoint.TxID != c.op.TxID {
		return lessHash(c.op.TxID, u.OutPoint.TxID)
	}
	return u.OutPoint.Vout > c.op.Vout
}

// addressIterAfter returns an iterator resuming strictly after the cursor
// in canonical order: the rest of the cursor's height group first, then
// every lower height group. Positioning is a pair of binary searches.
func (s *Set) addressIterAfter(addressKey string, c pageCursor) AddressIter {
	b := s.byAddress[addressKey]
	if b == nil {
		return AddressIter{}
	}
	asc := b.asc
	n := len(asc)
	q := sort.Search(n, func(i int) bool { return cursorStorageAfter(c, &asc[i]) })
	if q < n && asc[q].Height == c.height {
		// Resume mid-group: emit [q, groupEnd), then continue below the
		// group's start.
		groupEnd := q + sort.Search(n-q, func(j int) bool { return asc[q+j].Height > c.height })
		groupStart := sort.Search(q, func(i int) bool { return asc[i].Height >= c.height })
		return AddressIter{set: s, asc: asc, cur: q, groupEnd: groupEnd, groupStart: groupStart}
	}
	// The cursor's height group is exhausted (or absent): everything that
	// remains sits strictly below it.
	p := sort.Search(n, func(i int) bool { return asc[i].Height >= c.height })
	return AddressIter{set: s, asc: asc, cur: p, groupEnd: p, groupStart: p}
}

// AddressUTXOCount returns how many stable UTXOs an address holds.
func (s *Set) AddressUTXOCount(addressKey string) int {
	b := s.byAddress[addressKey]
	if b == nil {
		return 0
	}
	return len(b.asc)
}

// MergedPage streams one get_utxos page for an address directly off the
// ordered index: the union of the stable bucket (minus suppressed
// outpoints) and a small pre-sorted list of unstable creations, in
// canonical order, resuming strictly after token. It returns the page, how
// many of its entries came from the unstable list, and the next-page token
// (nil when the merged stream is exhausted).
//
// The page is byte-for-byte what Page(sortedMergedView, token, limit) would
// return, at O(log n + page) instead of O(n log n): the cursor is located
// by binary search and only the page is copied.
//
// created must be sorted canonically; suppress holds the outpoints the
// unstable chain spent plus every outpoint in created (creations override a
// same-outpoint stable entry, as the replay's map overwrite does).
func (s *Set) MergedPage(addressKey string, created []UTXO, suppress map[btc.OutPoint]bool, token PageToken, limit int) (page []UTXO, unstable int, next PageToken, err error) {
	if limit <= 0 {
		return nil, 0, nil, fmt.Errorf("utxo: page limit must be positive, got %d", limit)
	}
	var stable AddressIter
	ci := 0
	if len(token) != 0 {
		cur, err := decodeCursor(token)
		if err != nil {
			return nil, 0, nil, err
		}
		stable = s.addressIterAfter(addressKey, cur)
		ci = sort.Search(len(created), func(i int) bool { return cursorBefore(cur, created[i]) })
	} else {
		stable = s.AddressIter(addressKey)
	}

	capHint := stable.Remaining() + (len(created) - ci)
	if capHint > limit {
		capHint = limit
	}
	page = make([]UTXO, 0, capHint)

	su, sok := nextUnsuppressed(&stable, suppress)
	for len(page) < limit {
		switch {
		case sok && (ci >= len(created) || utxoBefore(&su, &created[ci])):
			page = append(page, su)
			su, sok = nextUnsuppressed(&stable, suppress)
		case ci < len(created):
			page = append(page, created[ci])
			unstable++
			ci++
		default:
			return page, unstable, nil, nil // both streams exhausted
		}
	}
	if !sok && ci >= len(created) {
		return page, unstable, nil, nil
	}
	last := page[len(page)-1]
	return page, unstable, encodeCursor(pageCursor{height: last.Height, op: last.OutPoint}), nil
}

// nextUnsuppressed advances the stable stream past suppressed outpoints.
func nextUnsuppressed(it *AddressIter, suppress map[btc.OutPoint]bool) (UTXO, bool) {
	for {
		r := it.next()
		if r == nil {
			return UTXO{}, false
		}
		if !suppress[r.OutPoint] {
			return it.set.utxo(r), true
		}
	}
}
