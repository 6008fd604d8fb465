// Package coherence implements the MSI directory protocol used by the
// full-system simulator (Table II: MSI over a distributed shared L2). The
// directory lives at each block's L2 home node and tracks which private L1s
// hold the block and in what state; the timing simulator asks it what
// messages a load or store implies and charges the corresponding NoC and
// cache events.
package coherence

import (
	"fmt"
	"math/bits"
)

// State is an MSI block state as tracked by the directory.
type State uint8

const (
	// Invalid: no L1 holds the block.
	Invalid State = iota
	// Shared: one or more L1s hold a read-only copy.
	Shared
	// Modified: exactly one L1 holds a dirty, exclusive copy.
	Modified
)

func (s State) String() string {
	switch s {
	case Shared:
		return "S"
	case Modified:
		return "M"
	default:
		return "I"
	}
}

// line is one tracked block. Every tracked line has at least one sharer
// (Evict drops a line when its last sharer leaves), so a zero sharer mask
// marks an empty table slot.
type line struct {
	block   uint64
	sharers uint64 // bitmask of nodes with a copy
	owner   int    // valid when state == Modified
	state   State
}

// Action tells the timing simulator what a request implies beyond the
// home-node lookup.
type Action struct {
	// FlushFrom >= 0 means the block must be fetched from that node's L1
	// (it holds the only up-to-date copy in Modified state).
	FlushFrom int
	// Invalidate is the bitmask of nodes whose L1 copies must be
	// invalidated (bit n set for node n).
	Invalidate uint64
}

// Directory tracks MSI state for all blocks. Not safe for concurrent use.
type Directory struct {
	nodes int
	// lines is an open-addressed, linearly probed table of tracked lines
	// keyed by block address; its length is a power of two and at most
	// half of it is occupied. A Go map of lines would be shorter, but every
	// L1 eviction deletes a line and a later miss re-adds it, and a map
	// clears the tombstones this leaves by growing into new tables: its
	// allocations keep rising with the stream, by an amount that depends
	// on its hash seed.
	lines []line
	live  int  // occupied slots
	shift uint // 64 - log2(len(lines))

	// Invalidations counts invalidation messages implied by stores.
	Invalidations uint64
	// Flushes counts owner-flush round trips implied by remote dirty copies.
	Flushes uint64
}

// NewDirectory builds a directory for n nodes. It panics if n is outside
// [1,64] (the sharer bitmask is a uint64): node counts are fixed experiment
// parameters, so an illegal one is a programming error, not a runtime
// condition.
func NewDirectory(n int) *Directory {
	if n <= 0 || n > 64 {
		panic(fmt.Sprintf("coherence: node count %d out of range [1,64]", n))
	}
	d := &Directory{nodes: n}
	d.resize(64)
	return d
}

// StateOf returns the directory state of a block.
func (d *Directory) StateOf(block uint64) State {
	return d.lines[d.find(block)].state
}

// Sharers returns the nodes currently holding the block.
func (d *Directory) Sharers(block uint64) []int {
	l := &d.lines[d.find(block)]
	var out []int
	for n := 0; n < d.nodes; n++ {
		if l.sharers&(1<<uint(n)) != 0 {
			out = append(out, n)
		}
	}
	return out
}

// home is block's preferred slot (Fibonacci hashing).
func (d *Directory) home(block uint64) int {
	return int((block * 0x9E3779B97F4A7C15) >> d.shift)
}

// find returns the slot holding block, or the empty slot where it would be
// inserted.
func (d *Directory) find(block uint64) int {
	mask := len(d.lines) - 1
	i := d.home(block)
	for d.lines[i].sharers != 0 && d.lines[i].block != block {
		i = (i + 1) & mask
	}
	return i
}

// get returns block's line. An untracked block gets a new Invalid line
// whose only sharer is node, the requester, so its slot reads as occupied
// (Load and Store both leave node a sharer).
func (d *Directory) get(block uint64, node int) *line {
	i := d.find(block)
	if d.lines[i].sharers == 0 {
		if 2*(d.live+1) > len(d.lines) {
			d.resize(2 * len(d.lines))
			i = d.find(block)
		}
		d.live++
		d.lines[i] = line{block: block, sharers: 1 << uint(node), owner: -1}
	}
	return &d.lines[i]
}

// resize rehashes the tracked lines into a table of n slots (a power of
// two).
func (d *Directory) resize(n int) {
	old := d.lines
	d.lines = make([]line, n)
	d.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for _, l := range old {
		if l.sharers != 0 {
			d.lines[d.find(l.block)] = l
		}
	}
}

// remove empties slot i, shifting later lines of its probe run back so
// that every line stays reachable from its home slot.
func (d *Directory) remove(i int) {
	mask := len(d.lines) - 1
	for j := (i + 1) & mask; d.lines[j].sharers != 0; j = (j + 1) & mask {
		// The line at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-d.home(d.lines[j].block))&mask >= (j-i)&mask {
			d.lines[i] = d.lines[j]
			i = j
		}
	}
	d.lines[i] = line{}
	d.live--
}

// Load records node reading block and returns the implied action. The
// requester ends with (at least) a Shared copy; a remote Modified owner is
// downgraded to Shared after flushing.
func (d *Directory) Load(block uint64, node int) Action {
	l := d.get(block, node)
	act := Action{FlushFrom: -1}
	switch l.state {
	case Invalid:
		l.state = Shared
	case Shared:
		// nothing extra
	case Modified:
		if l.owner != node {
			act.FlushFrom = l.owner
			d.Flushes++
			l.state = Shared
			l.owner = -1
		} else {
			// Requester already owns it (shouldn't be a miss, but a
			// conflict eviction may have dropped the L1 copy silently).
			l.state = Shared
			l.owner = -1
		}
	}
	l.sharers |= 1 << uint(node)
	return act
}

// Store records node writing block and returns the implied action: all
// other sharers are invalidated and a remote dirty owner flushes first.
func (d *Directory) Store(block uint64, node int) Action {
	l := d.get(block, node)
	act := Action{FlushFrom: -1}
	if l.state == Modified && l.owner != node && l.owner >= 0 {
		act.FlushFrom = l.owner
		d.Flushes++
	}
	act.Invalidate = l.sharers &^ (1 << uint(node))
	d.Invalidations += uint64(bits.OnesCount64(act.Invalidate))
	l.state = Modified
	l.owner = node
	l.sharers = 1 << uint(node)
	return act
}

// Evict records that node dropped its copy (L1 replacement). A Modified
// owner eviction implies a writeback, which the caller charges separately.
func (d *Directory) Evict(block uint64, node int) {
	i := d.find(block)
	l := &d.lines[i]
	if l.sharers == 0 {
		return
	}
	l.sharers &^= 1 << uint(node)
	if l.state == Modified && l.owner == node {
		l.state = Invalid
		l.owner = -1
	}
	if l.sharers == 0 {
		d.remove(i)
	}
}
