// Package cache implements a set-associative, write-allocate cache model
// with true-LRU replacement. It is used for the 64 KB private L1 of the
// phase-1 (Pin-like) simulator, the 16 KB L1s of the phase-2 full-system
// simulator, and the distributed shared-L2 banks.
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
	case c.Ways <= 0:
		return fmt.Errorf("cache: ways must be positive, got %d", c.Ways)
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

// meta is the per-line state the probe does not need: recency and flag
// bits. It lives in its own slice so the tag scan stays dense.
type meta struct {
	lru   uint64 // larger = more recently used
	flags uint8
}

// Cache is a set-associative cache. It tracks block presence and
// recency only; data payloads live with the workloads.
type Cache struct {
	cfg Config
	// tags[set*ways+way] holds the line's key: tag<<1|1, or 0 when the way
	// is invalid. Keys are always odd, so an invalid way can never match a
	// probe, and validity needs no separate flag. Keeping bare keys in
	// their own slice means one 8-way set's tags span a single 64-byte
	// host cache line — the probe below is the hottest loop in the
	// repository. (The shift drops tag bit 63; simulated addresses are
	// synthetic and nowhere near 2^63.)
	tags []uint64
	// meta[set*ways+way] carries recency + dirty/prefetch bits, touched
	// only after a probe resolves a way.
	meta       []meta
	ways       int
	setMask    uint64
	setBits    uint // popcount of setMask, precomputed: index/rebuild are the hottest ops
	blockShift uint
	clock      uint64
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
		meta:       make([]meta, cfg.Sets()*cfg.Ways),
		ways:       cfg.Ways,
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
// performs no accounting: hot callers (the phase-1 simulator) pair it with
// Touch/TouchStore on a hit and keep their own demand counters, so the
// whole hit path inlines into the caller with no cache-package call frame.
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
// index a Probe hit returned.
func (c *Cache) Touch(idx int) {
	c.clock++
	m := &c.meta[idx]
	m.lru = c.clock
	if m.flags&flagPrefetch != 0 {
		m.flags &^= flagPrefetch
		c.PrefetchHits++
	}
}

// TouchStore is Touch plus the store path's dirty bit.
func (c *Cache) TouchStore(idx int) {
	c.clock++
	m := &c.meta[idx]
	m.lru = c.clock
	m.flags |= flagDirty
	if m.flags&flagPrefetch != 0 {
		m.flags &^= flagPrefetch
		c.PrefetchHits++
	}
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
		// Already resident (e.g. prefetch raced a demand fill): refresh.
		c.clock++
		c.meta[base+i].lru = c.clock
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

// fill inserts key into the set window, evicting if every way is valid.
func (c *Cache) fill(set uint64, w []uint64, base int, key uint64, prefetched bool) (evicted uint64, wasValid, wasDirty bool) {
	c.stats.Fills++
	mw := c.meta[base : base+c.ways]
	// One pass: first invalid way wins, else the first way with minimal
	// recency (identical choice to scanning twice, at half the loads).
	victim := -1
	minIdx := 0
	for i := range w {
		if w[i] == 0 {
			victim = i
			break
		}
		if mw[i].lru < mw[minIdx].lru {
			minIdx = i
		}
	}
	if victim < 0 {
		victim = minIdx
		c.stats.Evictions++
		if mw[victim].flags&flagDirty != 0 {
			c.stats.Writebacks++
			wasDirty = true
		}
		evicted = c.rebuild(set, w[victim]>>1)
		wasValid = true
	}
	c.clock++
	var flags uint8
	if prefetched {
		flags = flagPrefetch
	}
	w[victim] = key
	mw[victim] = meta{lru: c.clock, flags: flags}
	return evicted, wasValid, wasDirty
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
		present, dirty = true, c.meta[base+i].flags&flagDirty != 0
		w[i] = 0
		c.meta[base+i] = meta{}
	}
	return present, dirty
}

// MarkDirty sets the dirty bit of a resident block (used when a store hit is
// modeled externally).
func (c *Cache) MarkDirty(addr uint64) {
	set, tag := c.index(addr)
	w, base := c.window(set)
	if i := probe(w, tag<<1|1); i >= 0 {
		c.meta[base+i].flags |= flagDirty
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
