package model

import "math/bits"

// ProcSet is a bitset over ProcessID, sized for one application. It is the
// canonical representation of executed/dropped process state across the
// synthesis and runtime layers: membership tests are branch-free word
// operations, copies are a handful of words, and — unlike a
// map[ProcessID]bool — iteration is deterministic (ascending ID order) and
// allocation-free.
type ProcSet []uint64

// NewProcSet returns an empty set with capacity for n processes.
func NewProcSet(n int) ProcSet { return make(ProcSet, (n+63)/64) }

// Has reports whether id is in the set.
func (s ProcSet) Has(id ProcessID) bool {
	return s[uint(id)>>6]&(1<<(uint(id)&63)) != 0
}

// Add inserts id.
func (s ProcSet) Add(id ProcessID) { s[uint(id)>>6] |= 1 << (uint(id) & 63) }

// Remove deletes id.
func (s ProcSet) Remove(id ProcessID) { s[uint(id)>>6] &^= 1 << (uint(id) & 63) }

// Clear empties the set in place.
func (s ProcSet) Clear() {
	for i := range s {
		s[i] = 0
	}
}

// Count returns the number of processes in the set.
func (s ProcSet) Count() int {
	c := 0
	for _, w := range s {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy of the set.
func (s ProcSet) Clone() ProcSet {
	cp := make(ProcSet, len(s))
	copy(cp, s)
	return cp
}

// CopyFrom overwrites the set with src (the sets must be the same size).
func (s ProcSet) CopyFrom(src ProcSet) { copy(s, src) }

// ProcSetOf returns the set of the given ids, sized for n processes.
func ProcSetOf(n int, ids []ProcessID) ProcSet {
	s := NewProcSet(n)
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// AppendIDs appends the members in ascending ID order to buf and returns
// the extended slice (pass buf[:0] to reuse a scratch buffer).
func (s ProcSet) AppendIDs(buf []ProcessID) []ProcessID {
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			buf = append(buf, ProcessID(wi*64+b))
			w &= w - 1
		}
	}
	return buf
}

// procKeyWords is the inline capacity of a ProcKey: sets over up to
// procKeyWords*64 processes produce keys without heap allocation.
const procKeyWords = 4

// ProcKey is a comparable snapshot of a ProcSet, usable as a map key.
// Applications with at most 256 processes (every paper benchmark, and
// everything the generator produces by default) fit the inline words and
// the key is built allocation-free; larger sets spill the remaining words
// into a string, which allocates but stays correct and comparable.
type ProcKey struct {
	w     [procKeyWords]uint64
	spill string
}

// Key snapshots the set into a comparable value.
func (s ProcSet) Key() ProcKey {
	var k ProcKey
	n := len(s)
	if n > procKeyWords {
		n = procKeyWords
	}
	for i := 0; i < n; i++ {
		k.w[i] = s[i]
	}
	if len(s) > procKeyWords {
		b := make([]byte, 0, (len(s)-procKeyWords)*8)
		for _, w := range s[procKeyWords:] {
			for i := 0; i < 8; i++ {
				b = append(b, byte(w>>(8*uint(i))))
			}
		}
		k.spill = string(b)
	}
	return k
}
