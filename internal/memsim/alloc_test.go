package memsim

import (
	"fmt"
	"io"
	"testing"

	"lva/internal/prefetch"
	"lva/internal/trace"
)

// allocRuns is how many measured calls assertZeroAllocs averages over.
const allocRuns = 200

// assertZeroAllocs pins a per-load path to zero steady-state allocations —
// the tentpole perf contract: after warmup, no load/store on any attachment
// path may touch the heap.
func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if n := testing.AllocsPerRun(allocRuns, fn); n != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, n)
	}
}

func TestPerLoadPathsAllocateNothing(t *testing.T) {
	t.Run("load hit", func(t *testing.T) {
		sim := New(DefaultConfig())
		sim.LoadFloat(0x400, 0x1000, 1, false) // warm the block
		assertZeroAllocs(t, "float hit", func() { sim.LoadFloat(0x400, 0x1000, 1, false) })
		assertZeroAllocs(t, "int hit", func() { sim.LoadInt(0x404, 0x1008, 2, true) })
	})

	t.Run("store hit and miss", func(t *testing.T) {
		sim := New(DefaultConfig())
		sim.Store(0x400, 0x1000)
		addr := uint64(0x100000)
		assertZeroAllocs(t, "store hit", func() { sim.Store(0x400, 0x1000) })
		assertZeroAllocs(t, "store miss", func() { sim.Store(0x400, addr); addr += 64 })
	})

	t.Run("covered miss delay-0", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Approx.ValueDelay = 0
		sim := New(cfg)
		// Warm the approximator table for a handful of static PCs so the
		// steady state retrains existing entries (LHB backing reused).
		for i := 0; i < 256; i++ {
			sim.LoadInt(uint64(0x400+i%8*4), uint64(0x100000+i*64), 10, true)
		}
		addr := uint64(0x800000)
		i := 0
		assertZeroAllocs(t, "covered miss", func() {
			sim.LoadInt(uint64(0x400+i%8*4), addr, 10, true)
			addr += 64
			i++
		})
	})

	t.Run("delayed training steady state", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Approx.ValueDelay = 4
		sim := New(cfg)
		for i := 0; i < 256; i++ {
			sim.LoadInt(uint64(0x400+i%8*4), uint64(0x100000+i*64), 10, true)
		}
		addr := uint64(0x800000)
		i := 0
		assertZeroAllocs(t, "delayed training", func() {
			// Miss (enqueue) followed by hits (countdown ticks): the
			// pending ring is at steady-state capacity, so neither the
			// enqueue nor the deferred commit allocates.
			sim.LoadInt(uint64(0x400+i%8*4), addr, 10, true)
			sim.LoadFloat(0x500, 0x1000, 1, false)
			sim.LoadFloat(0x500, 0x1000, 1, false)
			addr += 64
			i++
		})
	})

	t.Run("prefetch attach", func(t *testing.T) {
		// The prefetcher runs only on a miss, so every measured load must
		// miss: addresses come from an LCG over a 64 MB span, and the
		// prefetcher's miss count must grow by exactly one per call.
		for _, degree := range []int{4, 16} {
			cfg := DefaultConfig()
			cfg.Attach = AttachPrefetch
			cfg.Prefetch = prefetch.DefaultConfig()
			cfg.Prefetch.Degree = degree
			sim := New(cfg)
			x := uint64(1)
			addr := func() uint64 {
				x = x*6364136223846793005 + 1442695040888963407
				return 0x1000000 + x>>38 // the top 26 bits: a 64 MB span
			}
			for i := 0; i < 64; i++ {
				sim.LoadInt(0x400, addr(), 10, false)
			}
			before := sim.pref.Stats().Misses
			assertZeroAllocs(t, fmt.Sprintf("prefetch miss, degree %d", degree), func() {
				sim.LoadInt(0x400, addr(), 10, false)
			})
			// AllocsPerRun makes one warm-up call before the measured runs.
			if n := sim.pref.Stats().Misses - before; n != allocRuns+1 {
				t.Errorf("degree %d: %d of %d loads missed", degree, n, allocRuns+1)
			}
		}
	})

	t.Run("grid capture across chunk boundaries", func(t *testing.T) {
		// Each measured call records one full 4096-access chunk of hits, so
		// every run crosses a chunk boundary and pays for one flush.
		const chunk = 4096
		sim := New(DefaultConfig())
		gw := trace.NewGridWriter(io.Discard, "alloc-test", "k", 1)
		sim.SetCapture(gw)
		sim.LoadFloat(0x400, 0x1000, 1, false)
		assertZeroAllocs(t, "captured hits", func() {
			for i := 0; i < chunk; i++ {
				sim.LoadFloat(0x400, 0x1000, 1, false)
			}
		})
		hdr, err := gw.Finish(sim.Result().Instructions, nil)
		if err != nil {
			t.Fatal(err)
		}
		// AllocsPerRun makes one warm-up call before the measured runs.
		if hdr.Chunks < allocRuns+1 {
			t.Errorf("capture flushed %d chunks, want at least %d", hdr.Chunks, allocRuns+1)
		}
	})
}
