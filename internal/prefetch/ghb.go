// Package prefetch implements the paper's prefetching baseline: a Global
// History Buffer prefetcher (Nesbit & Smith) using local delta correlation
// with next-line fallback (§VI-D). The paper configures 2048 GHB entries and
// a 2048-entry index table to make the hardware budget comparable to the
// 512-entry/4-LHB approximator.
package prefetch

import "fmt"

// Config sizes the prefetcher.
type Config struct {
	// GHBEntries is the global history buffer depth (FIFO of miss
	// addresses). Paper: 2048.
	GHBEntries int
	// IndexEntries is the index-table size (PC -> newest GHB entry).
	// Paper: 2048.
	IndexEntries int
	// Degree is how many extra blocks to fetch per miss. A degree of 4
	// yields a 5:1 fetch-to-miss ratio.
	Degree int
	// BlockBytes is the cache line size used for next-line prefetching.
	BlockBytes int
}

// DefaultConfig returns the paper's prefetcher configuration with degree 4.
func DefaultConfig() Config {
	return Config{GHBEntries: 2048, IndexEntries: 2048, Degree: 4, BlockBytes: 64}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.GHBEntries <= 0:
		return fmt.Errorf("prefetch: GHB entries must be positive, got %d", c.GHBEntries)
	case c.IndexEntries <= 0 || c.IndexEntries&(c.IndexEntries-1) != 0:
		return fmt.Errorf("prefetch: index entries must be a positive power of two, got %d", c.IndexEntries)
	case c.Degree < 0:
		return fmt.Errorf("prefetch: degree must be >= 0, got %d", c.Degree)
	case c.BlockBytes <= 0 || c.BlockBytes&(c.BlockBytes-1) != 0:
		return fmt.Errorf("prefetch: block size must be a positive power of two, got %d", c.BlockBytes)
	}
	return nil
}

// ghbEntry is one slot of the global history buffer. prev links to the
// previous miss by the same index-table key; seq detects stale links after
// the FIFO wraps.
type ghbEntry struct {
	addr uint64
	prev int
	pseq uint64 // sequence number the prev link expects
	seq  uint64
}

type indexEntry struct {
	pos int
	seq uint64
}

// Stats counts prefetcher events.
type Stats struct {
	Misses   uint64 // demand misses observed
	Issued   uint64 // prefetch addresses produced
	DeltaHit uint64 // misses where a delta pattern was found
	NextLine uint64 // misses that fell back to next-line only
}

// Prefetcher is a GHB/local-delta-correlation prefetcher. Not safe for
// concurrent use.
type Prefetcher struct {
	cfg     Config
	ghb     []ghbEntry
	head    int
	seq     uint64
	index   []indexEntry
	targets []uint64 // OnMiss's result buffer, capacity Degree
	stats   Stats
}

// New builds a prefetcher; it panics on an invalid Config.
func New(cfg Config) *Prefetcher {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Prefetcher{
		cfg:     cfg,
		ghb:     make([]ghbEntry, cfg.GHBEntries),
		index:   make([]indexEntry, cfg.IndexEntries),
		targets: make([]uint64, 0, cfg.Degree),
	}
	for i := range p.ghb {
		p.ghb[i].prev = -1
	}
	for i := range p.index {
		p.index[i].pos = -1
	}
	return p
}

// Config returns the prefetcher configuration.
func (p *Prefetcher) Config() Config { return p.cfg }

// Stats returns a copy of the event counters.
func (p *Prefetcher) Stats() Stats { return p.stats }

func (p *Prefetcher) indexSlot(pc uint64) int {
	h := pc ^ (pc >> 13)
	return int(h & uint64(p.cfg.IndexEntries-1))
}

// history walks the link chain from the just-inserted GHB entry start and
// returns this PC's most recent miss addresses, newest first (h[0] is the
// current miss), and how many of them are still in the buffer. Three is
// all the delta match reads: two deltas.
func (p *Prefetcher) history(start int) (h [3]uint64, n int) {
	pos := start
	expect := p.ghb[start].seq
	for pos >= 0 && n < len(h) {
		e := &p.ghb[pos]
		if e.seq != expect {
			break // FIFO overwrote this link target
		}
		h[n] = e.addr
		n++
		pos = e.prev
		expect = e.pseq
	}
	return h, n
}

// OnMiss records a demand miss (block-aligned address) for the given load
// PC and returns the block addresses to prefetch, at most Degree of them.
// Local delta correlation: the deltas between this PC's recent misses are
// matched and extended; when no correlated pattern exists the prefetcher
// falls back to next-line.
//
// The result is the prefetcher's own buffer: it is valid only until the
// next OnMiss or Reset call, so a caller that keeps it must copy it.
//
// Each target run is an arithmetic progression from blockAddr, so it holds
// no duplicate and never blockAddr itself. The delta run steps by d1 != 0
// and stops at its first negative value, so it never wraps. The next-line
// run steps by BlockBytes and can only wrap back onto blockAddr when
// Degree*BlockBytes spans the whole 64-bit space; it stops there, because
// every later step repeats an earlier target.
func (p *Prefetcher) OnMiss(pc, blockAddr uint64) []uint64 {
	p.stats.Misses++
	slot := p.indexSlot(pc)

	// Insert into GHB, linking to the previous miss for this slot.
	p.seq++
	prev := -1
	var pseq uint64
	if ie := p.index[slot]; ie.pos >= 0 && p.ghb[ie.pos].seq == ie.seq {
		prev = ie.pos
		pseq = ie.seq
	}
	p.ghb[p.head] = ghbEntry{addr: blockAddr, prev: prev, pseq: pseq, seq: p.seq}
	inserted := p.head
	p.index[slot] = indexEntry{pos: inserted, seq: p.seq}
	p.head = (p.head + 1) % len(p.ghb)

	if p.cfg.Degree == 0 {
		return nil
	}

	hist, n := p.history(inserted)
	targets := p.targets[:0]
	if n >= 2 {
		d1 := int64(hist[0]) - int64(hist[1])
		matched := false
		if n >= 3 {
			d2 := int64(hist[1]) - int64(hist[2])
			matched = d1 == d2 && d1 != 0
		} else {
			matched = d1 != 0
		}
		if matched {
			p.stats.DeltaHit++
			next := int64(blockAddr)
			for i := 0; i < p.cfg.Degree; i++ {
				next += d1
				if next < 0 {
					break
				}
				targets = append(targets, uint64(next))
			}
		}
	}
	if len(targets) == 0 {
		// Next-line fallback.
		p.stats.NextLine++
		next := blockAddr
		for i := 0; i < p.cfg.Degree; i++ {
			next += uint64(p.cfg.BlockBytes)
			if next == blockAddr {
				break
			}
			targets = append(targets, next)
		}
	}
	p.stats.Issued += uint64(len(targets))
	return targets
}

// Reset clears history and statistics, keeping the configuration.
func (p *Prefetcher) Reset() {
	for i := range p.ghb {
		p.ghb[i] = ghbEntry{prev: -1}
	}
	for i := range p.index {
		p.index[i] = indexEntry{pos: -1}
	}
	p.head, p.seq = 0, 0
	p.stats = Stats{}
}
