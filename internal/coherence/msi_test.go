package coherence

import (
	"fmt"
	"math/bits"
	"testing"
	"testing/quick"
)

const blk = uint64(0x1000)

func TestInitialStateInvalid(t *testing.T) {
	d := NewDirectory(4)
	if d.StateOf(blk) != Invalid {
		t.Fatal("unknown block must be Invalid")
	}
	if d.Sharers(blk) != nil {
		t.Fatal("unknown block must have no sharers")
	}
}

func TestLoadGrantsShared(t *testing.T) {
	d := NewDirectory(4)
	act := d.Load(blk, 0)
	if act.FlushFrom != -1 || act.Invalidate != 0 {
		t.Fatalf("clean load must need nothing: %+v", act)
	}
	if d.StateOf(blk) != Shared {
		t.Fatalf("state = %v", d.StateOf(blk))
	}
	d.Load(blk, 2)
	sh := d.Sharers(blk)
	if len(sh) != 2 || sh[0] != 0 || sh[1] != 2 {
		t.Fatalf("sharers = %v", sh)
	}
}

func TestStoreInvalidatesSharers(t *testing.T) {
	d := NewDirectory(4)
	d.Load(blk, 0)
	d.Load(blk, 1)
	d.Load(blk, 2)
	act := d.Store(blk, 0)
	if act.FlushFrom != -1 {
		t.Fatalf("no dirty owner to flush: %+v", act)
	}
	if act.Invalidate != 1<<1|1<<2 {
		t.Fatalf("invalidate mask = %b, want nodes 1 and 2", act.Invalidate)
	}
	if d.StateOf(blk) != Modified {
		t.Fatalf("state = %v", d.StateOf(blk))
	}
	if sh := d.Sharers(blk); len(sh) != 1 || sh[0] != 0 {
		t.Fatalf("sharers after store = %v", sh)
	}
	if d.Invalidations != 2 {
		t.Fatalf("invalidations = %d", d.Invalidations)
	}
}

func TestLoadFlushesRemoteDirty(t *testing.T) {
	d := NewDirectory(4)
	d.Store(blk, 1)
	act := d.Load(blk, 0)
	if act.FlushFrom != 1 {
		t.Fatalf("load must flush from the dirty owner: %+v", act)
	}
	if d.StateOf(blk) != Shared {
		t.Fatal("after flush the block is Shared")
	}
	if d.Flushes != 1 {
		t.Fatalf("flushes = %d", d.Flushes)
	}
	sh := d.Sharers(blk)
	if len(sh) != 2 {
		t.Fatalf("both nodes share after downgrade: %v", sh)
	}
}

func TestStoreFlushesRemoteDirty(t *testing.T) {
	d := NewDirectory(4)
	d.Store(blk, 1)
	act := d.Store(blk, 2)
	if act.FlushFrom != 1 {
		t.Fatalf("store must flush the previous owner: %+v", act)
	}
	if act.Invalidate != 1<<1 {
		t.Fatalf("previous owner must be invalidated: %+v", act)
	}
	if d.StateOf(blk) != Modified || d.Sharers(blk)[0] != 2 {
		t.Fatal("ownership must transfer")
	}
}

func TestOwnStoreUpgradeNoFlush(t *testing.T) {
	d := NewDirectory(4)
	d.Load(blk, 0)
	act := d.Store(blk, 0)
	if act.FlushFrom != -1 || act.Invalidate != 0 {
		t.Fatalf("upgrading sole sharer needs nothing: %+v", act)
	}
}

func TestEvict(t *testing.T) {
	d := NewDirectory(4)
	d.Load(blk, 0)
	d.Load(blk, 1)
	d.Evict(blk, 0)
	if sh := d.Sharers(blk); len(sh) != 1 || sh[0] != 1 {
		t.Fatalf("sharers after evict = %v", sh)
	}
	d.Evict(blk, 1)
	if d.StateOf(blk) != Invalid {
		t.Fatal("last evict must drop the line")
	}
	// Evicting a dirty owner invalidates the line.
	d.Store(blk, 2)
	d.Evict(blk, 2)
	if d.StateOf(blk) != Invalid {
		t.Fatal("owner evict must invalidate")
	}
	// Evicting an unknown block is a no-op.
	d.Evict(0xDEAD, 0)
}

func TestNewDirectoryBounds(t *testing.T) {
	// The panic message is a documented contract (see NewDirectory's
	// comment and the nopanic analyzer): it must name the valid range.
	for _, n := range []int{0, -1, 65} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("NewDirectory(%d) must panic", n)
					return
				}
				want := fmt.Sprintf("coherence: node count %d out of range [1,64]", n)
				if r != want {
					t.Errorf("NewDirectory(%d) panic = %v, want %q", n, r, want)
				}
			}()
			NewDirectory(n)
		}()
	}
	// Boundary values must not panic.
	if NewDirectory(1) == nil || NewDirectory(64) == nil {
		t.Fatal("in-range node counts must build a directory")
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Modified.String() != "M" {
		t.Fatal("state strings")
	}
}

// TestSingleOwnerInvariant drives random load/store/evict sequences and
// checks MSI's core invariant: Modified implies exactly one sharer.
func TestSingleOwnerInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		d := NewDirectory(4)
		blocks := []uint64{0x100, 0x200}
		for _, op := range ops {
			b := blocks[int(op>>1)%2]
			node := int(op>>3) % 4
			switch op % 3 {
			case 0:
				d.Load(b, node)
			case 1:
				d.Store(b, node)
			case 2:
				d.Evict(b, node)
			}
			for _, bb := range blocks {
				if d.StateOf(bb) == Modified && len(d.Sharers(bb)) != 1 {
					return false
				}
				if d.StateOf(bb) == Invalid && len(d.Sharers(bb)) != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestOpsAllocateNothing pins the directory allocation-free once its table
// has grown to the working set: lines are stored by value and invalidation
// targets are a bitmask.
func TestOpsAllocateNothing(t *testing.T) {
	d := NewDirectory(4)
	ops := func() {
		for b := 0; b < 512; b++ {
			block := uint64(b) * 64
			d.Load(block, b%4)
			d.Load(block, (b+1)%4)
			d.Store(block, (b+2)%4)
			d.Evict(block, (b+2)%4)
		}
	}
	ops() // warm-up: grow the table
	if allocs := testing.AllocsPerRun(20, ops); allocs != 0 {
		t.Fatalf("Load/Store/Evict allocate %v times per round", allocs)
	}
}

// TestTableMatchesModel drives thousands of colliding blocks through random
// load/store/evict sequences, exercising the line table's probing, growth
// and deletion, and checks every block's state, sharers and the message
// counters against a map-backed model.
func TestTableMatchesModel(t *testing.T) {
	type ref struct {
		sharers uint64
		owner   int // >= 0 while Modified
	}
	d := NewDirectory(4)
	model := map[uint64]*ref{}
	var invalidations, flushes uint64
	rng := uint64(1)
	for i := 0; i < 200000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		block := (rng >> 33) % 3000 * 64
		node := int(rng>>20) % 4
		m := model[block]
		if m == nil {
			m = &ref{owner: -1}
			model[block] = m
		}
		switch (rng >> 40) % 3 {
		case 0:
			d.Load(block, node)
			if m.owner >= 0 && m.owner != node {
				flushes++
			}
			m.sharers |= 1 << node
			m.owner = -1
		case 1:
			d.Store(block, node)
			if m.owner >= 0 && m.owner != node {
				flushes++
			}
			invalidations += uint64(bits.OnesCount64(m.sharers &^ (1 << node)))
			m.sharers, m.owner = 1<<node, node
		default:
			d.Evict(block, node)
			m.sharers &^= 1 << node
			if m.owner == node {
				m.owner = -1
			}
			if m.sharers == 0 {
				delete(model, block)
			}
		}
	}
	if d.live != len(model) {
		t.Fatalf("directory tracks %d lines, model %d", d.live, len(model))
	}
	for b := uint64(0); b < 3000; b++ {
		block := b * 64
		want, sharers := Invalid, uint64(0)
		if m := model[block]; m != nil {
			want, sharers = Shared, m.sharers
			if m.owner >= 0 {
				want = Modified
			}
		}
		var got uint64
		for _, n := range d.Sharers(block) {
			got |= 1 << n
		}
		if d.StateOf(block) != want || got != sharers {
			t.Fatalf("block %#x: state %v sharers %b, want %v %b", block, d.StateOf(block), got, want, sharers)
		}
	}
	if d.Invalidations != invalidations || d.Flushes != flushes {
		t.Fatalf("invalidations %d flushes %d, want %d %d", d.Invalidations, d.Flushes, invalidations, flushes)
	}
}
