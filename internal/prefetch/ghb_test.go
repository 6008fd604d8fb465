package prefetch

import (
	"slices"
	"testing"
	"testing/quick"
)

func smallConfig() Config {
	return Config{GHBEntries: 16, IndexEntries: 16, Degree: 4, BlockBytes: 64}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{GHBEntries: 0, IndexEntries: 16, Degree: 1, BlockBytes: 64},
		{GHBEntries: 16, IndexEntries: 0, Degree: 1, BlockBytes: 64},
		{GHBEntries: 16, IndexEntries: 15, Degree: 1, BlockBytes: 64}, // not pow2
		{GHBEntries: 16, IndexEntries: 16, Degree: -1, BlockBytes: 64},
		{GHBEntries: 16, IndexEntries: 16, Degree: 1, BlockBytes: 60},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
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

func TestDeltaCorrelation(t *testing.T) {
	p := New(smallConfig())
	const pc = 0x400
	// Misses with a constant stride of 2 blocks (128 B).
	p.OnMiss(pc, 0)
	p.OnMiss(pc, 128)
	targets := p.OnMiss(pc, 256)
	if len(targets) != 4 {
		t.Fatalf("degree-4 prefetch must produce 4 targets, got %d", len(targets))
	}
	want := []uint64{384, 512, 640, 768}
	for i, w := range want {
		if targets[i] != w {
			t.Fatalf("target %d = %d, want %d", i, targets[i], w)
		}
	}
	if p.Stats().DeltaHit == 0 {
		t.Fatal("delta pattern must be recognized")
	}
}

func TestNextLineFallback(t *testing.T) {
	p := New(smallConfig())
	// Random (non-repeating-delta) misses: first few fall back next-line.
	targets := p.OnMiss(0x400, 64000)
	if len(targets) != 4 {
		t.Fatalf("fallback must still issue degree targets, got %d", len(targets))
	}
	if targets[0] != 64000+64 {
		t.Fatalf("next-line target = %d", targets[0])
	}
	if p.Stats().NextLine == 0 {
		t.Fatal("next-line fallback must be counted")
	}
}

func TestDegreeZeroIssuesNothing(t *testing.T) {
	cfg := smallConfig()
	cfg.Degree = 0
	p := New(cfg)
	if got := p.OnMiss(0x400, 0); got != nil {
		t.Fatalf("degree 0 must not prefetch, got %v", got)
	}
}

func TestPerPCHistories(t *testing.T) {
	p := New(smallConfig())
	// Interleave two PCs with different strides; each must be tracked
	// separately through the index table's link chains. (0x101 and 0x202
	// map to distinct slots of the 16-entry test index table.)
	for i := 0; i < 3; i++ {
		p.OnMiss(0x101, uint64(i)*64)
		p.OnMiss(0x202, uint64(i)*320)
	}
	// Each result is valid only until the next OnMiss, so check t1 first.
	t1 := p.OnMiss(0x101, 3*64)
	if t1[0] != 4*64 {
		t.Fatalf("pc1 stride target = %d, want %d", t1[0], 4*64)
	}
	t2 := p.OnMiss(0x202, 3*320)
	if t2[0] != 4*320 {
		t.Fatalf("pc2 stride target = %d, want %d", t2[0], 4*320)
	}
}

func TestFIFOWrapInvalidatesStaleLinks(t *testing.T) {
	cfg := smallConfig() // 16-entry GHB
	p := New(cfg)
	p.OnMiss(0x100, 0)
	p.OnMiss(0x100, 64)
	// Flood with other PCs so the GHB wraps and 0x100's chain is stale.
	for i := 0; i < 40; i++ {
		p.OnMiss(uint64(0x1000+i*8), uint64(100000+i*6400))
	}
	// Must not crash or follow stale links; falls back to next-line.
	targets := p.OnMiss(0x100, 128)
	if len(targets) == 0 {
		t.Fatal("wrapped history must still prefetch something")
	}
}

func TestNoDuplicateTargets(t *testing.T) {
	f := func(addrs []uint16) bool {
		p := New(smallConfig())
		for _, a := range addrs {
			targets := p.OnMiss(0x400, uint64(a)*64)
			seen := map[uint64]bool{}
			for _, tg := range targets {
				if seen[tg] {
					return false
				}
				seen[tg] = true
			}
			if len(targets) > p.Config().Degree {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReset(t *testing.T) {
	p := New(smallConfig())
	p.OnMiss(0x400, 0)
	p.OnMiss(0x400, 64)
	p.Reset()
	if p.Stats() != (Stats{}) {
		t.Fatal("Reset must clear stats")
	}
	// After reset the old stride must be gone: fallback to next-line.
	targets := p.OnMiss(0x400, 128)
	if targets[0] != 192 {
		t.Fatalf("post-reset target = %d, want next-line 192", targets[0])
	}
}

func TestNegativeDeltaPattern(t *testing.T) {
	p := New(smallConfig())
	p.OnMiss(0x400, 1024)
	p.OnMiss(0x400, 960)
	targets := p.OnMiss(0x400, 896)
	if targets[0] != 832 {
		t.Fatalf("descending stride target = %d, want 832", targets[0])
	}
}

// refHistory and refOnMiss are OnMiss as it was before it returned a reused
// buffer: a fresh history slice, target slice and duplicate-check map on
// every call. TestOnMissMatchesReference drives them beside OnMiss.
func refHistory(p *Prefetcher, start int, max int) []uint64 {
	addrs := make([]uint64, 0, max)
	pos := start
	var expect uint64 = p.ghb[start].seq
	for pos >= 0 && len(addrs) < max {
		e := p.ghb[pos]
		if e.seq != expect {
			break
		}
		addrs = append(addrs, e.addr)
		pos = e.prev
		expect = e.pseq
	}
	return addrs
}

func refOnMiss(p *Prefetcher, pc, blockAddr uint64) []uint64 {
	p.stats.Misses++
	slot := p.indexSlot(pc)

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

	hist := refHistory(p, inserted, 4)
	targets := make([]uint64, 0, p.cfg.Degree)
	seen := map[uint64]bool{blockAddr: true}
	add := func(a uint64) {
		if !seen[a] && len(targets) < p.cfg.Degree {
			seen[a] = true
			targets = append(targets, a)
		}
	}

	if len(hist) >= 2 {
		d1 := int64(hist[0]) - int64(hist[1])
		matched := false
		if len(hist) >= 3 {
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
				add(uint64(next))
			}
		}
	}
	if len(targets) == 0 {
		p.stats.NextLine++
		next := blockAddr
		for i := 0; i < p.cfg.Degree; i++ {
			next += uint64(p.cfg.BlockBytes)
			add(next)
		}
	}
	p.stats.Issued += uint64(len(targets))
	return targets
}

// splitmix is a splitmix64 stream: the miss streams below need no more
// than a deterministic mix of bits.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// missStream yields (pc, address) misses from a few PCs, each walking its
// own address with a stride it keeps for a while: positive, negative and
// zero deltas, runs that cross zero, jumps near 0, 2^63 and 2^64, and
// plain random addresses.
type missStream struct {
	rng    splitmix
	addr   [6]uint64
	stride [6]int64
}

// streamPCs holds three PCs that share slot 0 of a 16-entry index table
// (pc ^ pc>>13 ends in 0x0) and three with slots of their own.
var streamPCs = [6]uint64{0x400, 0x410, 0x2421, 0x404, 0x40c, 0x1233}

func (m *missStream) next() (pc, addr uint64) {
	i := int(m.rng.next() % uint64(len(streamPCs)))
	switch r := m.rng.next() % 16; {
	case r == 0:
		m.addr[i] = m.rng.next() % 2048 // near 0
	case r == 1:
		m.addr[i] = 1<<63 - 1024 + m.rng.next()%2048
	case r == 2:
		m.addr[i] = -(1 + m.rng.next()%2048) // near 2^64
	case r == 3:
		m.addr[i] = m.rng.next()
	case r < 6:
		strides := [...]int64{64, -64, 128, -192, 0, 4096, -4096, 1}
		m.stride[i] = strides[m.rng.next()%uint64(len(strides))]
	}
	m.addr[i] += uint64(m.stride[i])
	return streamPCs[i], m.addr[i]
}

func TestOnMissMatchesReference(t *testing.T) {
	for _, pc := range streamPCs[:3] {
		if slot := New(smallConfig()).indexSlot(pc); slot != 0 {
			t.Fatalf("pc %#x maps to slot %d, want the shared slot 0", pc, slot)
		}
	}
	for _, degree := range []int{0, 1, 4, 16} {
		// A 2^62-byte block makes the next-line run wrap onto blockAddr
		// within four steps.
		for _, block := range []int{64, 1 << 62} {
			cfg := Config{GHBEntries: 16, IndexEntries: 16, Degree: degree, BlockBytes: block}
			got, want := New(cfg), New(cfg)
			s := missStream{rng: splitmix(degree)}
			for i := 0; i < 20000; i++ {
				pc, addr := s.next()
				w := refOnMiss(want, pc, addr)
				g := got.OnMiss(pc, addr)
				if !slices.Equal(g, w) || (g == nil) != (w == nil) {
					t.Fatalf("degree %d block %d miss %d (pc %#x addr %#x): targets %v, want %v",
						degree, block, i, pc, addr, g, w)
				}
				if got.Stats() != want.Stats() {
					t.Fatalf("degree %d block %d miss %d: stats %+v, want %+v",
						degree, block, i, got.Stats(), want.Stats())
				}
			}
			st := got.Stats()
			if degree > 0 && (st.DeltaHit == 0 || st.NextLine == 0) {
				t.Fatalf("degree %d block %d: stream missed a path: %+v", degree, block, st)
			}
		}
	}
}

func TestOnMissAllocatesNothing(t *testing.T) {
	const runs = 200
	cases := []struct {
		name  string
		addr  func(i uint64) uint64
		count func(Stats) uint64
	}{
		// A constant 2-block stride: every miss extends the delta.
		{"delta hit", func(i uint64) uint64 { return 0x100000 + i*128 }, func(s Stats) uint64 { return s.DeltaHit }},
		// The same block over and over: a zero delta falls back to next-line.
		{"next-line", func(uint64) uint64 { return 0x100000 }, func(s Stats) uint64 { return s.NextLine }},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		cfg.Degree = 16
		p := New(cfg)
		var i uint64
		for ; i < 8; i++ {
			p.OnMiss(0x400, c.addr(i))
		}
		before := c.count(p.Stats())
		allocs := testing.AllocsPerRun(runs, func() {
			if len(p.OnMiss(0x400, c.addr(i))) != cfg.Degree {
				t.Fatalf("%s: short target run", c.name)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, allocs)
		}
		// AllocsPerRun makes one warm-up call before the measured runs.
		if n := c.count(p.Stats()) - before; n != runs+1 {
			t.Errorf("%s: took its path on %d of %d calls", c.name, n, runs+1)
		}
	}
}
