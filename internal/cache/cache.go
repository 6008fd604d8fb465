// Package cache implements a set-associative, write-allocate cache model
// with true-LRU replacement, kept as a recency order within each set. It is
// used for the 64 KB private L1 of the phase-1 (Pin-like) simulator, the
// 16 KB L1s of the phase-2 full-system simulator, and the distributed
// shared-L2 banks.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes a cache geometry.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// BlockBytes is the line size.
	BlockBytes int
	// LatencyCycles is the hit latency used by the timing simulator.
	LatencyCycles int
}

// Validate reports a descriptive error for impossible geometries.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0:
		return fmt.Errorf("cache: size must be positive, got %d", c.SizeBytes)
	case c.Ways <= 0 || c.Ways&(c.Ways-1) != 0:
		// A set's first flat index is idx &^ (Ways-1): see toFront.
		return fmt.Errorf("cache: ways must be a positive power of two, got %d", c.Ways)
	case c.BlockBytes <= 0 || c.BlockBytes&(c.BlockBytes-1) != 0:
		return fmt.Errorf("cache: block size must be a positive power of two, got %d", c.BlockBytes)
	case c.SizeBytes%(c.Ways*c.BlockBytes) != 0:
		return fmt.Errorf("cache: size %d not divisible by ways*block (%d*%d)", c.SizeBytes, c.Ways, c.BlockBytes)
	}
	sets := c.SizeBytes / (c.Ways * c.BlockBytes)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d must be a power of two", sets)
	}
	return nil
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.BlockBytes) }

// Stats holds per-cache event counts.
type Stats struct {
	Loads      uint64
	Stores     uint64
	LoadMiss   uint64
	StoreMiss  uint64
	Fills      uint64 // blocks inserted (demand fetches + prefetches)
	Evictions  uint64
	Writebacks uint64 // dirty evictions
}

// Misses returns total load+store misses.
func (s Stats) Misses() uint64 { return s.LoadMiss + s.StoreMiss }

// Accesses returns total load+store accesses.
func (s Stats) Accesses() uint64 { return s.Loads + s.Stores }

const (
	flagDirty    uint8 = 1 << iota
	flagPrefetch       // inserted by a prefetcher, not yet demanded
)

// Cache is a set-associative cache. It tracks block presence and
// recency only; data payloads live with the workloads.
type Cache struct {
	cfg Config
	// tags[set*ways+pos] holds a line's key: tag<<1|1, or 0 for an empty
	// slot. Keys are always odd, so an empty slot can never match a probe,
	// and validity needs no separate flag. Each set is kept in recency
	// order: position 0 holds the most recently used line, and a hit or a
	// fill moves its line there, so the valid lines' positions order them
	// by last touch and the last valid position is the LRU line. Keeping
	// bare keys in their own slice means one 8-way set's tags span a
	// single 64-byte host cache line — the probe below is the hottest loop
	// in the repository. (The shift drops tag bit 63; simulated addresses
	// are synthetic and nowhere near 2^63.)
	tags []uint64
	// flags[i] holds the dirty/prefetch bits of the line at tags[i] and
	// moves with it.
	flags      []uint8
	ways       int
	wayMask    int // ways-1
	setMask    uint64
	setBits    uint // popcount of setMask, precomputed: index/rebuild are the hottest ops
	blockShift uint
	stats      Stats
	// PrefetchHits counts demand accesses whose block was brought in by a
	// prefetch (useful-prefetch accounting for Figure 8).
	PrefetchHits uint64
}

// New builds a cache for the given geometry; it panics on an invalid
// Config since geometries are compile-time constants in this repository.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	mask := uint64(cfg.Sets() - 1)
	return &Cache{
		cfg:        cfg,
		tags:       make([]uint64, cfg.Sets()*cfg.Ways),
		flags:      make([]uint8, cfg.Sets()*cfg.Ways),
		ways:       cfg.Ways,
		wayMask:    cfg.Ways - 1,
		setMask:    mask,
		setBits:    uint(bits.OnesCount64(mask)),
		blockShift: uint(bits.TrailingZeros64(uint64(cfg.BlockBytes))),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// BlockAddr returns the block-aligned address containing addr.
func (c *Cache) BlockAddr(addr uint64) uint64 { return addr >> c.blockShift << c.blockShift }

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	blk := addr >> c.blockShift
	return blk & c.setMask, blk >> c.setBits
}

// window returns one set's tag keys plus the flat base index of its first
// way; all way indexing inside the window is bounds-check-free.
func (c *Cache) window(set uint64) ([]uint64, int) {
	base := int(set) * c.ways
	return c.tags[base : base+c.ways], base
}

// probe scans a set's tag window for key. It is the shared inner probe of
// every lookup path; kept tiny so it inlines.
func probe(w []uint64, key uint64) int {
	for i := range w {
		if w[i] == key {
			return i
		}
	}
	return -1
}

// Contains reports whether the block holding addr is resident, without
// updating recency or statistics.
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	w, _ := c.window(set)
	return probe(w, tag<<1|1) >= 0
}

// Probe returns the flat line index of addr's block, or -1 on a miss. It
// performs no accounting: hot callers (memsim's load path and fullsys's
// step) pair it with Touch/TouchStore on a hit and keep their own demand
// counters, so a hit on a set's most recent line inlines into the caller
// with no cache-package call frame.
func (c *Cache) Probe(addr uint64) int {
	blk := addr >> c.blockShift
	base := int(blk&c.setMask) * c.ways
	w := c.tags[base : base+c.ways]
	key := (blk>>c.setBits)<<1 | 1
	for i := range w {
		if w[i] == key {
			return base + i
		}
	}
	return -1
}

// Touch refreshes recency and prefetch accounting for the line at the flat
// index a Probe hit returned. The line moves to the front of its set, so
// idx no longer names it afterwards. A hit on a set's most recent line
// that was not prefetched, the common case, is two tests and no call.
func (c *Cache) Touch(idx int) {
	if c.flags[idx]&flagPrefetch != 0 || idx&c.wayMask != 0 {
		c.touch(idx, 0)
	}
}

// TouchStore is Touch plus the store path's dirty bit.
func (c *Cache) TouchStore(idx int) {
	if c.flags[idx] != flagDirty || idx&c.wayMask != 0 {
		c.touch(idx, flagDirty)
	}
}

// touch is the out-of-line rest of Touch and TouchStore: it ORs add into
// the line's flags, counts and clears a prefetch bit, and moves the line to
// the front of its set. Kept out of line so that Touch and TouchStore,
// which call it, stay within the inliner's budget.
//
//go:noinline
func (c *Cache) touch(idx int, add uint8) {
	f := c.flags[idx] | add
	if f&flagPrefetch != 0 {
		f &^= flagPrefetch
		c.PrefetchHits++
	}
	c.toFront(idx, f)
}

// toFront moves the line at flat index idx to position 0 of its set with
// flags f. It empties the line's slot and pushes the line in at the front,
// so the more recent lines shift back one place into that slot, or into an
// earlier empty one. idx &^ wayMask is the set's first index because
// Validate requires a power-of-two way count.
func (c *Cache) toFront(idx int, f uint8) {
	base := idx &^ c.wayMask
	key := c.tags[idx]
	c.tags[idx] = 0
	push(c.tags[base:idx+1], c.flags[base:idx+1], key, f)
}

// push inserts a line at position 0 of a set window w (keys) and fw
// (flags), carrying each displaced line one place back until an empty
// slot takes it. It returns the line that drops out of the last position,
// with key 0 if an empty slot absorbed the shift.
func push(w []uint64, fw []uint8, key uint64, flags uint8) (uint64, uint8) {
	fw = fw[:len(w)] // drops fw's bounds checks in the loop
	for i := range w {
		w[i], key = key, w[i]
		fw[i], flags = flags, fw[i]
		if key == 0 {
			break
		}
	}
	return key, flags
}

// Load performs a demand load of addr, with hit/miss accounting in the
// cache's own stats. It returns true on a hit. On a miss the block is NOT
// inserted; callers decide whether the fetch happens (LVA may elide it
// entirely) and call Fill.
func (c *Cache) Load(addr uint64) bool {
	c.stats.Loads++
	if idx := c.Probe(addr); idx >= 0 {
		c.Touch(idx)
		return true
	}
	c.stats.LoadMiss++
	return false
}

// Store performs a demand store of addr. It returns true on a hit. Misses
// are write-allocate: the caller is expected to Fill afterwards (stores are
// never approximated, matching the paper's load-only focus).
func (c *Cache) Store(addr uint64) bool {
	c.stats.Stores++
	if idx := c.Probe(addr); idx >= 0 {
		c.TouchStore(idx)
		return true
	}
	c.stats.StoreMiss++
	return false
}

// Fill inserts the block containing addr, evicting the LRU way if needed.
// prefetched marks the block as brought in by a prefetcher. It returns the
// evicted block address, whether an eviction of a valid block occurred,
// and whether that victim was dirty (needs a writeback).
func (c *Cache) Fill(addr uint64, prefetched bool) (evicted uint64, wasValid, wasDirty bool) {
	set, tag := c.index(addr)
	w, base := c.window(set)
	key := tag<<1 | 1
	if i := probe(w, key); i >= 0 {
		// Already resident (e.g. prefetch raced a demand fill): refresh
		// recency only, leaving the prefetch bit and PrefetchHits alone.
		c.toFront(base+i, c.flags[base+i])
		return 0, false, false
	}
	return c.fill(set, w, base, key, prefetched)
}

// FillAbsent is Fill for callers that just observed the block miss (or
// checked Contains) in the same access, with no intervening insertions: it
// skips Fill's redundant residency probe. The phase-1 demand-miss path
// fills on every miss, so the probe it elides ran once per miss.
func (c *Cache) FillAbsent(addr uint64, prefetched bool) (evicted uint64, wasValid, wasDirty bool) {
	set, tag := c.index(addr)
	w, base := c.window(set)
	return c.fill(set, w, base, tag<<1|1, prefetched)
}

// fill pushes key in at the front of the set window. The shift ends in the
// first empty slot, or else drops the line in the last position: the least
// recently used one, since positions order valid lines by their last touch
// or fill.
func (c *Cache) fill(set uint64, w []uint64, base int, key uint64, prefetched bool) (evicted uint64, wasValid, wasDirty bool) {
	c.stats.Fills++
	var flags uint8
	if prefetched {
		flags = flagPrefetch
	}
	old, oldFlags := push(w, c.flags[base:base+len(w)], key, flags)
	if old == 0 {
		return 0, false, false
	}
	c.stats.Evictions++
	if oldFlags&flagDirty != 0 {
		c.stats.Writebacks++
		wasDirty = true
	}
	return c.rebuild(set, old>>1), true, wasDirty
}

// rebuild reconstructs a block address from set index and tag.
func (c *Cache) rebuild(set, tag uint64) uint64 {
	return ((tag << c.setBits) | set) << c.blockShift
}

// Invalidate removes the block containing addr if present, returning whether
// it was present and whether it was dirty (the coherence layer needs both).
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	set, tag := c.index(addr)
	w, base := c.window(set)
	if i := probe(w, tag<<1|1); i >= 0 {
		present, dirty = true, c.flags[base+i]&flagDirty != 0
		w[i] = 0
		c.flags[base+i] = 0
	}
	return present, dirty
}

// MarkDirty sets the dirty bit of a resident block (used when a store hit is
// modeled externally).
func (c *Cache) MarkDirty(addr uint64) {
	set, tag := c.index(addr)
	w, base := c.window(set)
	if i := probe(w, tag<<1|1); i >= 0 {
		c.flags[base+i] |= flagDirty
	}
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for _, k := range c.tags {
		if k != 0 {
			n++
		}
	}
	return n
}
