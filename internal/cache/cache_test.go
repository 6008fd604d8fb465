package cache

import (
	"fmt"
	"testing"
	"testing/quick"
)

func smallConfig() Config {
	return Config{SizeBytes: 1024, Ways: 2, BlockBytes: 64, LatencyCycles: 1} // 8 sets
}

func TestConfigValidate(t *testing.T) {
	good := smallConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{SizeBytes: 0, Ways: 1, BlockBytes: 64},
		{SizeBytes: 1024, Ways: 0, BlockBytes: 64},
		{SizeBytes: 1024, Ways: 2, BlockBytes: 48},     // not power of two
		{SizeBytes: 1000, Ways: 2, BlockBytes: 64},     // not divisible
		{SizeBytes: 1024 * 3, Ways: 2, BlockBytes: 64}, // 24 sets: not pow2
		{SizeBytes: 1536, Ways: 3, BlockBytes: 64},     // 8 sets of 3 ways: ways not pow2
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSets(t *testing.T) {
	if got := smallConfig().Sets(); got != 8 {
		t.Fatalf("Sets = %d", got)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New must panic on invalid config")
		}
	}()
	New(Config{})
}

func TestLoadMissThenFillHits(t *testing.T) {
	c := New(smallConfig())
	if c.Load(0x1000) {
		t.Fatal("cold load must miss")
	}
	c.Fill(0x1000, false)
	if !c.Load(0x1000) {
		t.Fatal("load after fill must hit")
	}
	if !c.Load(0x1030) { // same 64B block
		t.Fatal("same-block load must hit")
	}
	st := c.Stats()
	if st.Loads != 3 || st.LoadMiss != 1 || st.Fills != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMissDoesNotInsert(t *testing.T) {
	c := New(smallConfig())
	c.Load(0x2000)
	if c.Contains(0x2000) {
		t.Fatal("a miss must not insert the block (fetch is the caller's decision)")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(smallConfig()) // 2 ways, 8 sets; blocks mapping to set 0: addr = k*8*64
	a, b, d := uint64(0), uint64(8*64), uint64(16*64)
	c.Fill(a, false)
	c.Fill(b, false)
	c.Load(a) // make a MRU
	evicted, was, _ := c.Fill(d, false)
	if !was {
		t.Fatal("third fill in a 2-way set must evict")
	}
	if evicted != b {
		t.Fatalf("LRU victim = %#x, want %#x", evicted, b)
	}
	if !c.Contains(a) || c.Contains(b) || !c.Contains(d) {
		t.Fatal("post-eviction residency wrong")
	}
}

func TestDirtyEvictionWriteback(t *testing.T) {
	c := New(smallConfig())
	a, b, d := uint64(0), uint64(8*64), uint64(16*64)
	c.Fill(a, false)
	c.MarkDirty(a)
	c.Fill(b, false)
	c.Load(b) // b MRU, a LRU
	_, was, dirty := c.Fill(d, false)
	if !was || !dirty {
		t.Fatalf("dirty LRU eviction: was=%v dirty=%v", was, dirty)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestStoreWriteAllocateSemantics(t *testing.T) {
	c := New(smallConfig())
	if c.Store(0x40) {
		t.Fatal("cold store must miss")
	}
	c.Fill(0x40, false)
	c.MarkDirty(0x40)
	if !c.Store(0x40) {
		t.Fatal("store after fill must hit")
	}
	if c.Stats().StoreMiss != 1 || c.Stats().Stores != 2 {
		t.Fatalf("stats = %+v", c.Stats())
	}
}

func TestInvalidate(t *testing.T) {
	c := New(smallConfig())
	c.Fill(0x80, false)
	c.MarkDirty(0x80)
	present, dirty := c.Invalidate(0x80)
	if !present || !dirty {
		t.Fatalf("invalidate: present=%v dirty=%v", present, dirty)
	}
	if c.Contains(0x80) {
		t.Fatal("block must be gone after invalidate")
	}
	present, _ = c.Invalidate(0x80)
	if present {
		t.Fatal("double invalidate must report absent")
	}
}

func TestPrefetchHitAccounting(t *testing.T) {
	c := New(smallConfig())
	c.Fill(0x100, true) // prefetched
	if c.PrefetchHits != 0 {
		t.Fatal("no demand access yet")
	}
	c.Load(0x100)
	if c.PrefetchHits != 1 {
		t.Fatalf("PrefetchHits = %d", c.PrefetchHits)
	}
	c.Load(0x100)
	if c.PrefetchHits != 1 {
		t.Fatal("prefetch hit must count once")
	}
}

func TestFillExistingRefreshes(t *testing.T) {
	c := New(smallConfig())
	c.Fill(0x200, false)
	_, was, _ := c.Fill(0x200, false)
	if was {
		t.Fatal("re-fill of resident block must not evict")
	}
	if c.Stats().Fills != 1 {
		t.Fatalf("fills = %d (re-fill must not count)", c.Stats().Fills)
	}
}

func TestBlockAddr(t *testing.T) {
	c := New(smallConfig())
	if got := c.BlockAddr(0x1234); got != 0x1200 {
		t.Fatalf("BlockAddr = %#x", got)
	}
}

func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	cfg := smallConfig()
	capacity := cfg.Sets() * cfg.Ways
	f := func(addrs []uint16) bool {
		c := New(cfg)
		for _, a := range addrs {
			addr := uint64(a) * 64
			if !c.Load(addr) {
				c.Fill(addr, false)
			}
		}
		return c.Occupancy() <= capacity
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFilledBlocksAreFound(t *testing.T) {
	// Property: immediately after Fill(addr), Contains(addr) holds.
	cfg := smallConfig()
	f := func(addrs []uint32) bool {
		c := New(cfg)
		for _, a := range addrs {
			addr := uint64(a)
			c.Fill(addr, false)
			if !c.Contains(addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEvictedAddressReconstruction(t *testing.T) {
	// Property: the evicted address is block-aligned and maps to the same
	// set as the filled address.
	cfg := smallConfig()
	c := New(cfg)
	set0 := []uint64{0, 8 * 64, 16 * 64, 24 * 64}
	c.Fill(set0[0], false)
	c.Fill(set0[1], false)
	evicted, was, _ := c.Fill(set0[2], false)
	if !was {
		t.Fatal("expected eviction")
	}
	if evicted%64 != 0 {
		t.Fatalf("evicted address %#x not block-aligned", evicted)
	}
	if evicted != set0[0] {
		t.Fatalf("evicted %#x, want %#x", evicted, set0[0])
	}
}

// stampCache is the reference true LRU, kept by timestamps: every line
// carries the clock value of its last touch or fill, and a fill takes the
// first invalid way, else the way with the smallest stamp. A Fill of a
// resident line refreshes its stamp and nothing else. TestMatchesStampLRU
// drives it beside Cache.
type stampCache struct {
	cfg          Config
	keys, lru    []uint64
	flags        []uint8
	clock        uint64
	stats        Stats
	prefetchHits uint64
}

func newStampCache(cfg Config) *stampCache {
	n := cfg.Sets() * cfg.Ways
	return &stampCache{cfg: cfg, keys: make([]uint64, n), lru: make([]uint64, n), flags: make([]uint8, n)}
}

// set returns the flat index of addr's first way and addr's key.
func (r *stampCache) set(addr uint64) (base int, key uint64) {
	blk := addr / uint64(r.cfg.BlockBytes)
	sets := uint64(r.cfg.Sets())
	return int(blk%sets) * r.cfg.Ways, blk/sets<<1 | 1
}

func (r *stampCache) find(addr uint64) int {
	base, key := r.set(addr)
	for i := base; i < base+r.cfg.Ways; i++ {
		if r.keys[i] == key {
			return i
		}
	}
	return -1
}

func (r *stampCache) touch(i int, store bool) {
	r.clock++
	r.lru[i] = r.clock
	if store {
		r.flags[i] |= flagDirty
	}
	if r.flags[i]&flagPrefetch != 0 {
		r.flags[i] &^= flagPrefetch
		r.prefetchHits++
	}
}

// access is Load (store false) or Store (store true).
func (r *stampCache) access(addr uint64, store bool) bool {
	if store {
		r.stats.Stores++
	} else {
		r.stats.Loads++
	}
	if i := r.find(addr); i >= 0 {
		r.touch(i, store)
		return true
	}
	if store {
		r.stats.StoreMiss++
	} else {
		r.stats.LoadMiss++
	}
	return false
}

func (r *stampCache) fill(addr uint64, prefetched bool) (evicted uint64, wasValid, wasDirty bool) {
	if i := r.find(addr); i >= 0 {
		r.clock++
		r.lru[i] = r.clock
		return 0, false, false
	}
	r.stats.Fills++
	base, key := r.set(addr)
	victim := base
	for i := base; i < base+r.cfg.Ways; i++ {
		if r.keys[i] == 0 {
			victim = i
			break
		}
		if r.lru[i] < r.lru[victim] {
			victim = i
		}
	}
	if r.keys[victim] != 0 {
		r.stats.Evictions++
		wasValid = true
		if r.flags[victim]&flagDirty != 0 {
			r.stats.Writebacks++
			wasDirty = true
		}
		set := uint64(victim / r.cfg.Ways)
		evicted = (r.keys[victim]>>1*uint64(r.cfg.Sets()) + set) * uint64(r.cfg.BlockBytes)
	}
	r.clock++
	r.keys[victim], r.lru[victim], r.flags[victim] = key, r.clock, 0
	if prefetched {
		r.flags[victim] = flagPrefetch
	}
	return evicted, wasValid, wasDirty
}

func (r *stampCache) invalidate(addr uint64) (present, dirty bool) {
	if i := r.find(addr); i >= 0 {
		present, dirty = true, r.flags[i]&flagDirty != 0
		r.keys[i], r.flags[i] = 0, 0
	}
	return present, dirty
}

func (r *stampCache) markDirty(addr uint64) {
	if i := r.find(addr); i >= 0 {
		r.flags[i] |= flagDirty
	}
}

func (r *stampCache) occupancy() int {
	n := 0
	for _, k := range r.keys {
		if k != 0 {
			n++
		}
	}
	return n
}

// TestMatchesStampLRU drives Cache and the stamp-based stampCache with the
// same random operations over 2-, 8- and 16-way geometries, on three
// times as many blocks as the cache holds, and requires every return
// value, the Stats, PrefetchHits and Occupancy to agree after every step.
// Invalidations leave holes in the middle of sets. Each geometry must also
// have re-filled a resident prefetched line, which refreshes its recency
// but neither clears the prefetch bit nor counts a prefetch hit.
func TestMatchesStampLRU(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 1024, Ways: 2, BlockBytes: 64},  // 8 sets
		{SizeBytes: 2048, Ways: 8, BlockBytes: 64},  // 4 sets
		{SizeBytes: 4096, Ways: 16, BlockBytes: 64}, // 4 sets
	} {
		c, ref := New(cfg), newStampCache(cfg)
		blocks := uint64(3 * cfg.Sets() * cfg.Ways)
		rng := uint64(cfg.Ways)
		prefetchRefills := 0
		for step := 0; step < 100000; step++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			addr := (rng>>33)%blocks*64 + (rng>>20)%64
			prefetched := (rng>>60)&1 != 0
			var got, want string
			switch (rng >> 40) % 9 {
			case 0:
				got, want = fmt.Sprint(c.Load(addr)), fmt.Sprint(ref.access(addr, false))
			case 1:
				got, want = fmt.Sprint(c.Store(addr)), fmt.Sprint(ref.access(addr, true))
			case 2, 3: // the phase-1 and phase-2 hit path
				store := (rng>>40)%9 == 3
				idx, i := c.Probe(addr), ref.find(addr)
				got, want = fmt.Sprint(idx >= 0), fmt.Sprint(i >= 0)
				if idx >= 0 && i >= 0 {
					if store {
						c.TouchStore(idx)
					} else {
						c.Touch(idx)
					}
					ref.touch(i, store)
				}
			case 4:
				if i := ref.find(addr); i >= 0 && ref.flags[i]&flagPrefetch != 0 {
					prefetchRefills++
				}
				got, want = fmt.Sprint(c.Fill(addr, prefetched)), fmt.Sprint(ref.fill(addr, prefetched))
			case 5: // FillAbsent after a miss, demand or prefetched
				if c.Probe(addr) < 0 {
					got, want = fmt.Sprint(c.FillAbsent(addr, prefetched)), fmt.Sprint(ref.fill(addr, prefetched))
				}
			case 6:
				got, want = fmt.Sprint(c.Invalidate(addr)), fmt.Sprint(ref.invalidate(addr))
			case 7:
				c.MarkDirty(addr)
				ref.markDirty(addr)
			case 8:
				got, want = fmt.Sprint(c.Contains(addr)), fmt.Sprint(ref.find(addr) >= 0)
			}
			if got != want {
				t.Fatalf("%d-way, step %d, addr %#x: got %s, stamp LRU gives %s", cfg.Ways, step, addr, got, want)
			}
			if c.Stats() != ref.stats || c.PrefetchHits != ref.prefetchHits || c.Occupancy() != ref.occupancy() {
				t.Fatalf("%d-way, step %d: stats %+v, %d prefetch hits, %d lines; stamp LRU has %+v, %d, %d",
					cfg.Ways, step, c.Stats(), c.PrefetchHits, c.Occupancy(), ref.stats, ref.prefetchHits, ref.occupancy())
			}
		}
		if prefetchRefills == 0 {
			t.Errorf("%d-way: no Fill of a resident prefetched line was exercised", cfg.Ways)
		}
		t.Logf("%d-way: %+v, %d prefetch hits, %d fills of a resident prefetched line", cfg.Ways, c.Stats(), c.PrefetchHits, prefetchRefills)
	}
}
