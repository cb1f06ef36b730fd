// Package pagetab stores per-page bookkeeping keyed by page number without
// a Go map entry per page. It has two types:
//
//   - Table, a chunked sparse int64→int64 map, for the one true page→value
//     map in the simulator: KVM's demand-paged slots (slot page index →
//     demand-allocated HPA page), filled one page per first touch.
//   - Bitmap, a chunked page set, for presence-only bookkeeping: fastiovd's
//     per-PID sets of deferred pages and KVM's EPT (which GPA pages have a
//     translation installed; the HPA is fixed by the memory slot).
//
// Page numbers are dense in practice (a region maps consecutive pages), so
// both types store fixed-size chunks addressed by key>>bits and cache the
// last chunk touched: a sequential walk costs one map lookup per chunk and
// one array access per page, and memory stays proportional to the number
// of distinct chunks touched even under sparse or large keys (the 4K-page
// ablation maps 512× more pages per guest than the default geometry).
// Bitmap additionally sets whole words when adding a run of pages.
//
// The zero Table is NOT ready for use; call New. A nil *Table behaves like
// a nil map: reads miss, Set panics. The zero Bitmap is an empty set, ready
// for use.
package pagetab

import (
	"math/bits"
	"sort"
)

const (
	chunkBits = 7
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// Table maps int64 keys to non-negative int64 values (page numbers and
// host physical addresses). Entries store value+1 internally so the zero
// slot means "absent"; callers never see the bias, and Set panics on
// negative values, which the bias cannot represent (-1 would collide with
// the absent sentinel and silently corrupt the entry count).
type Table struct {
	chunks map[int64][]int64
	n      int

	// One-entry chunk cache: page-table writes are overwhelmingly
	// sequential, so the common case skips the chunk map entirely.
	lastKey int64
	last    []int64
}

// New returns an empty table.
func New() *Table {
	return &Table{chunks: make(map[int64][]int64), lastKey: -1}
}

// chunkFor returns the chunk holding key, creating it when create is set.
func (t *Table) chunkFor(key int64, create bool) []int64 {
	ck := key >> chunkBits
	if t.last != nil && ck == t.lastKey {
		return t.last
	}
	c := t.chunks[ck]
	if c == nil {
		if !create {
			return nil
		}
		c = make([]int64, chunkSize)
		t.chunks[ck] = c
	}
	t.lastKey, t.last = ck, c
	return c
}

// Get returns the value stored at key.
func (t *Table) Get(key int64) (int64, bool) {
	if t == nil {
		return 0, false
	}
	c := t.chunkFor(key, false)
	if c == nil {
		return 0, false
	}
	v := c[key&chunkMask]
	if v == 0 {
		return 0, false
	}
	return v - 1, true
}

// Set stores value at key, inserting or overwriting. value must be
// non-negative.
func (t *Table) Set(key, value int64) {
	if value < 0 {
		panic("pagetab: negative value")
	}
	c := t.chunkFor(key, true)
	if c[key&chunkMask] == 0 {
		t.n++
	}
	c[key&chunkMask] = value + 1
}

// Len returns the number of live entries.
func (t *Table) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Range calls fn for every live entry in ascending key order. fn must not
// mutate the table.
func (t *Table) Range(fn func(key, value int64)) {
	if t == nil {
		return
	}
	for _, ck := range sortedKeys(t.chunks) {
		c := t.chunks[ck]
		base := ck << chunkBits
		for i, v := range c {
			if v != 0 {
				fn(base+int64(i), v-1)
			}
		}
	}
}

// sortedKeys returns m's chunk keys in ascending order.
func sortedKeys[V any](m map[int64]V) []int64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

const (
	bitChunkBits  = 12 // 4096 pages per chunk
	bitChunkWords = 1 << bitChunkBits / 64
	bitChunkMask  = 1<<bitChunkBits - 1
)

// bitChunk is the presence bits of 4096 consecutive pages.
type bitChunk [bitChunkWords]uint64

// Bitmap is a set of non-negative page numbers.
type Bitmap struct {
	chunks map[int64]*bitChunk
	n      int

	// One-entry chunk cache, as in Table. last is nil when empty.
	lastKey int64
	last    *bitChunk
}

// chunkFor returns the chunk holding page, creating it when create is set.
func (b *Bitmap) chunkFor(page int64, create bool) *bitChunk {
	ck := page >> bitChunkBits
	if b.last != nil && ck == b.lastKey {
		return b.last
	}
	c := b.chunks[ck]
	if c == nil {
		if !create {
			return nil
		}
		if b.chunks == nil {
			b.chunks = make(map[int64]*bitChunk)
		}
		c = new(bitChunk)
		b.chunks[ck] = c
	}
	b.lastKey, b.last = ck, c
	return c
}

// Has reports whether page is in the set.
func (b *Bitmap) Has(page int64) bool {
	c := b.chunkFor(page, false)
	if c == nil {
		return false
	}
	i := page & bitChunkMask
	return c[i>>6]&(1<<(i&63)) != 0
}

// Add inserts page.
func (b *Bitmap) Add(page int64) {
	c := b.chunkFor(page, true)
	i := page & bitChunkMask
	if w, bit := &c[i>>6], uint64(1)<<(i&63); *w&bit == 0 {
		*w |= bit
		b.n++
	}
}

// AddRun inserts the count pages starting at start, a word at a time.
func (b *Bitmap) AddRun(start, count int64) {
	for end := start + count; start < end; {
		c := b.chunkFor(start, true)
		i := start & bitChunkMask
		// The span of this run inside the current 64-page word.
		n := min(64-i&63, end-start)
		mask := ^uint64(0) >> (64 - n) << (i & 63)
		w := &c[i>>6]
		b.n += bits.OnesCount64(mask &^ *w)
		*w |= mask
		start += n
	}
}

// Remove deletes page. The set releases its memory when it becomes empty.
func (b *Bitmap) Remove(page int64) {
	c := b.chunkFor(page, false)
	if c == nil {
		return
	}
	i := page & bitChunkMask
	if w, bit := &c[i>>6], uint64(1)<<(i&63); *w&bit != 0 {
		*w &^= bit
		if b.n--; b.n == 0 {
			*b = Bitmap{}
		}
	}
}

// Len returns the number of pages in the set.
func (b *Bitmap) Len() int { return b.n }

// Range calls fn for every page in ascending order. fn must not mutate the
// set.
func (b *Bitmap) Range(fn func(page int64)) {
	for _, ck := range sortedKeys(b.chunks) {
		base := ck << bitChunkBits
		for wi, w := range b.chunks[ck] {
			for w != 0 {
				fn(base + int64(wi)<<6 + int64(bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
	}
}
