package exec

import (
	"bytes"
	"slices"

	"punctsafe/stream"
)

// punctEntry is one stored punctuation together with its §5.1 lifecycle
// metadata. For an ordered (watermark) scheme the entry is the compacted
// representative of every instantiation seen for its equality constants:
// only the widest bound needs keeping, since a <=T promise subsumes every
// <=T' with T' <= T.
type punctEntry struct {
	punct stream.Punctuation
	// consts are the constant values in punctuatable-attribute order
	// (the ordered slot, if any, holds the current bound).
	consts []stream.Value
	// si is the index, within its store, of the scheme the entry
	// instantiates.
	si int
	// arrived is the operator clock value when the punctuation arrived
	// (or was last widened).
	arrived uint64
	// expires is the clock value after which the punctuation no longer
	// holds (§5.1 lifespans, e.g. TCP sequence-number wraparound); zero
	// means it holds forever.
	expires uint64
	// emitted records whether the operator already propagated this
	// punctuation to its output (so tree plans do not emit duplicates).
	// Widening a watermark bound resets it: the wider promise is news.
	emitted bool
	// next chains entries of one scheme whose equality keys share a hash.
	next *punctEntry
}

// punctStore holds the punctuations received on one operator input,
// organized per scheme and keyed by the hash of the constants assigned to
// the scheme's equality attributes, so the chained purge machinery can
// answer "is the punctuation P(v1..vm) present?" in one map probe plus an
// equality check along the (almost always single-entry) hash chain.
// Watermark schemes compare the ordered slot against the stored bound
// instead. Probes hash the caller's constants in place, so the coverage
// checks inside purge chains cost no allocations.
type punctStore struct {
	schemes []stream.Scheme
	// idx[k] is schemes[k].PunctuatableIndexes(), computed once: the
	// attribute positions a stored entry's consts are aligned with.
	idx [][]int
	// ordSlot[k] is the position of schemes[k]'s ordered attribute within
	// its punctuatable-attribute order, or -1.
	ordSlot []int
	// entries[k] holds the stored instantiations of schemes[k], keyed by
	// the hash of the equality constants (collisions chain via next).
	entries []map[uint64]*punctEntry
	size    int
	// consts is add()'s scratch for an arriving punctuation's constants:
	// they are copied into an entry only when one is actually stored.
	consts []stream.Value
	// free holds removed entries for reuse by add. A removed entry keeps
	// its fields until it is reused (pushPunct still reads an entry its
	// own purge round just dropped), and the list never outgrows the
	// store's high-water mark.
	free []*punctEntry
	// sortBuf is each()'s reusable sortedInto buffer.
	sortBuf []*punctEntry
}

func newPunctStore(schemes []stream.Scheme) *punctStore {
	ps := &punctStore{
		schemes: schemes,
		idx:     make([][]int, len(schemes)),
		ordSlot: make([]int, len(schemes)),
		entries: make([]map[uint64]*punctEntry, len(schemes)),
	}
	for i, s := range schemes {
		ps.entries[i] = make(map[uint64]*punctEntry)
		ps.idx[i] = s.PunctuatableIndexes()
		ps.ordSlot[i] = -1
		oi := s.OrderedIndex()
		for slot, a := range ps.idx[i] {
			if a == oi {
				ps.ordSlot[i] = slot
			}
		}
	}
	return ps
}

// eqHash hashes the equality part of a constant list (the ordered slot,
// if any, is skipped: it is compared against the stored bound instead).
func (ps *punctStore) eqHash(schemeIdx int, consts []stream.Value) uint64 {
	const prime64 = 1099511628211
	slot := ps.ordSlot[schemeIdx]
	h := uint64(14695981039346656037)
	for i, v := range consts {
		if i != slot {
			h = (h ^ v.Hash()) * prime64
		}
	}
	return h
}

// eqMatch reports whether the entry's equality constants equal consts'.
func (ps *punctStore) eqMatch(e *punctEntry, consts []stream.Value) bool {
	slot := ps.ordSlot[e.si]
	for i, v := range consts {
		if i != slot && !e.consts[i].Equal(v) {
			return false
		}
	}
	return true
}

// find returns the stored entry (live or expired) for the scheme whose
// equality constants equal consts', given their eqHash h, or nil.
func (ps *punctStore) find(schemeIdx int, h uint64, consts []stream.Value) *punctEntry {
	for e := ps.entries[schemeIdx][h]; e != nil; e = e.next {
		if ps.eqMatch(e, consts) {
			return e
		}
	}
	return nil
}

// appendConsts appends the constant values of a punctuation in ascending
// attribute order (bounds included) to dst.
func appendConsts(dst []stream.Value, p stream.Punctuation) []stream.Value {
	for _, pat := range p.Patterns {
		if !pat.IsWildcard() {
			dst = append(dst, pat.Value())
		}
	}
	return dst
}

// schemeIndex returns the index of the scheme the punctuation
// instantiates, or -1 when it matches none (the punctuation is then
// irrelevant to this operator and is dropped).
func (ps *punctStore) schemeIndex(p stream.Punctuation) int {
	for i, s := range ps.schemes {
		if s.Instantiates(p) {
			return i
		}
	}
	return -1
}

// indexOfScheme returns the store's index for a registered scheme value.
func (ps *punctStore) indexOfScheme(s stream.Scheme) int {
	for i, have := range ps.schemes {
		if have.Equal(s) {
			return i
		}
	}
	return -1
}

// lookup returns the live entry for the scheme with the given constants'
// equality part, or nil.
func (ps *punctStore) lookup(schemeIdx int, consts []stream.Value, now uint64) *punctEntry {
	e := ps.find(schemeIdx, ps.eqHash(schemeIdx, consts), consts)
	if e == nil || e.expired(now) {
		return nil
	}
	return e
}

// add stores a punctuation. It returns the entry when the punctuation is
// new information (fresh entry, or a widened watermark bound), or nil
// when it instantiates no registered scheme or adds nothing.
func (ps *punctStore) add(p stream.Punctuation, now, lifespan uint64) *punctEntry {
	si := ps.schemeIndex(p)
	if si < 0 {
		return nil
	}
	ps.consts = appendConsts(ps.consts[:0], p)
	consts := ps.consts
	slot := ps.ordSlot[si]
	h := ps.eqHash(si, consts)
	e := ps.find(si, h, consts)
	fresh := e == nil || e.expired(now) // an expired entry is replaced in place
	if !fresh {
		if slot < 0 {
			return nil // exact duplicate
		}
		// Watermark: keep only the widest bound.
		le, cmp := stream.LessEq(consts[slot], e.consts[slot])
		if cmp && le {
			return nil // not wider than what we hold
		}
	} else if e == nil {
		e = ps.alloc()
		e.si = si
		e.next = ps.entries[si][h]
		ps.entries[si][h] = e
		ps.size++
	}
	e.punct = p
	e.consts = append(e.consts[:0], consts...)
	e.arrived = now
	if lifespan > 0 {
		e.expires = now + lifespan
	} else if fresh {
		e.expires = 0
	}
	e.emitted = false
	return e
}

// alloc returns a recycled entry, or a new one.
func (ps *punctStore) alloc() *punctEntry {
	if n := len(ps.free); n > 0 {
		e := ps.free[n-1]
		ps.free = ps.free[:n-1]
		return e
	}
	return &punctEntry{}
}

func (e *punctEntry) expired(now uint64) bool {
	return e.expires != 0 && now > e.expires
}

// covered reports whether a live stored punctuation guarantees the given
// constants: for equality slots an exact match, for the ordered slot a
// stored bound at or above the value.
func (ps *punctStore) covered(schemeIdx int, consts []stream.Value, now uint64) bool {
	e := ps.lookup(schemeIdx, consts, now)
	if e == nil {
		return false
	}
	slot := ps.ordSlot[schemeIdx]
	if slot < 0 {
		return true
	}
	le, ok := stream.LessEq(consts[slot], e.consts[slot])
	return ok && le
}

// remove deletes a stored entry; it reports whether the entry was still
// stored. The entry is recycled for a later add.
func (ps *punctStore) remove(e *punctEntry) bool {
	m := ps.entries[e.si]
	h := ps.eqHash(e.si, e.consts)
	var prev *punctEntry
	for cur := m[h]; cur != nil; prev, cur = cur, cur.next {
		if cur == e {
			ps.unlink(m, h, prev, e)
			return true
		}
	}
	return false
}

// unlink takes e (preceded by prev in its chain, nil at the head) out of
// the chain stored under h, recycles it and updates the size.
func (ps *punctStore) unlink(m map[uint64]*punctEntry, h uint64, prev, e *punctEntry) {
	switch {
	case prev != nil:
		prev.next = e.next
	case e.next != nil:
		m[h] = e.next
	default:
		delete(m, h)
	}
	e.next = nil
	ps.size--
	ps.free = append(ps.free, e)
}

// expire removes entries whose lifespan has elapsed and returns the count.
func (ps *punctStore) expire(now uint64) int {
	removed := 0
	for _, m := range ps.entries {
		for h, e := range m {
			var prev *punctEntry
			for e != nil {
				next := e.next
				if e.expired(now) {
					ps.unlink(m, h, prev, e)
					removed++
				} else {
					prev = e
				}
				e = next
			}
		}
	}
	return removed
}

// sortedInto appends every stored entry (live or expired) of one scheme
// to dst in ascending order of the stream.AppendKey encoding of its
// equality constants, so sweeps and snapshots see entries in an order
// fixed by their contents, not by Go map order or hash values.
func (ps *punctStore) sortedInto(dst []*punctEntry, schemeIdx int) []*punctEntry {
	start := len(dst)
	for _, e := range ps.entries[schemeIdx] {
		for ; e != nil; e = e.next {
			dst = append(dst, e)
		}
	}
	slot := ps.ordSlot[schemeIdx]
	var ka, kb []byte
	slices.SortFunc(dst[start:], func(a, b *punctEntry) int {
		ka = appendEqKey(ka[:0], slot, a.consts)
		kb = appendEqKey(kb[:0], slot, b.consts)
		return bytes.Compare(ka, kb)
	})
	return dst
}

// appendEqKey appends the stream.AppendKey encoding of the constants,
// minus the ordered slot, to dst.
func appendEqKey(dst []byte, slot int, consts []stream.Value) []byte {
	for i, v := range consts {
		if i != slot {
			dst = stream.AppendKey(dst, v)
		}
	}
	return dst
}

// each visits every live entry until fn returns false. Entries are
// visited per scheme in sortedInto order so sweep-time punctuation emission
// is deterministic across runs. fn must not add or remove entries.
func (ps *punctStore) each(now uint64, fn func(schemeIdx int, e *punctEntry) bool) {
	for si := range ps.entries {
		ps.sortBuf = ps.sortedInto(ps.sortBuf[:0], si)
		for _, e := range ps.sortBuf {
			if e.expired(now) {
				continue
			}
			if !fn(si, e) {
				return
			}
		}
	}
}
