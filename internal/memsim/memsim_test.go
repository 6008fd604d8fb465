package memsim

import (
	"bytes"
	"fmt"
	"testing"

	"lva/internal/trace"
)

func testConfig(attach Attachment) Config {
	cfg := DefaultConfig()
	cfg.Attach = attach
	cfg.Approx.ValueDelay = 0
	return cfg
}

func TestInstructionAccounting(t *testing.T) {
	s := New(testConfig(AttachNone))
	s.LoadFloat(0x400, 0x1000, 1.0, false)
	s.Store(0x404, 0x2000)
	s.Tick(10)
	r := s.Result()
	if r.Instructions != 12 {
		t.Fatalf("instructions = %d, want 12", r.Instructions)
	}
	if r.Loads != 1 || r.Stores != 1 {
		t.Fatalf("loads/stores = %d/%d", r.Loads, r.Stores)
	}
}

func TestPreciseMissFetches(t *testing.T) {
	s := New(testConfig(AttachNone))
	v := s.LoadFloat(0x400, 0x1000, 2.5, false)
	if v != 2.5 {
		t.Fatalf("precise load must return the precise value, got %v", v)
	}
	r := s.Result()
	if r.LoadMisses != 1 || r.Fetches != 1 || r.Covered != 0 {
		t.Fatalf("result = %+v", r)
	}
	// Second load to the same block hits.
	s2 := New(testConfig(AttachNone))
	s2.LoadFloat(0x400, 0x1000, 2.5, false)
	s2.LoadFloat(0x400, 0x1008, 2.5, false)
	if got := s2.Result().LoadMisses; got != 1 {
		t.Fatalf("same-block second load must hit: misses = %d", got)
	}
}

func TestLVAClobbersValue(t *testing.T) {
	s := New(testConfig(AttachLVA))
	// Train with value 10 at distinct blocks (always missing), then read
	// a fresh block whose precise value is 99: the approximator must
	// return ~10 and that is what the workload must consume.
	for i := 0; i < 4; i++ {
		s.LoadInt(0x400, uint64(0x1000+i*64), 10, true)
	}
	v := s.LoadInt(0x400, 0x9000, 99, true)
	if v != 10 {
		t.Fatalf("covered load must return the approximation 10, got %d", v)
	}
	r := s.Result()
	if r.Covered == 0 {
		t.Fatal("coverage must be counted")
	}
}

func TestLVPReturnsPrecise(t *testing.T) {
	s := New(testConfig(AttachLVP))
	for i := 0; i < 4; i++ {
		s.LoadInt(0x400, uint64(0x1000+i*64), 10, true)
	}
	v := s.LoadInt(0x400, 0x9000, 10, true)
	if v != 10 {
		t.Fatalf("LVP consumes precise values (rollback on mismatch), got %d", v)
	}
	r := s.Result()
	if r.Covered == 0 {
		t.Fatal("an exact-match prediction must count as covered")
	}
	if r.Approx.LVPCorrect == 0 {
		t.Fatal("LVP correctness must be tracked")
	}
}

func TestNonApproxLoadBypassesApproximator(t *testing.T) {
	s := New(testConfig(AttachLVA))
	for i := 0; i < 4; i++ {
		s.LoadInt(0x400, uint64(0x1000+i*64), 10, true)
	}
	v := s.LoadInt(0x500, 0x9000, 77, false)
	if v != 77 {
		t.Fatalf("precise load must not be approximated, got %d", v)
	}
	if got := s.Result().StaticPCs; got != 1 {
		t.Fatalf("static approximate PCs = %d, want 1 (0x400 only)", got)
	}
}

func TestDegreeElidesFills(t *testing.T) {
	cfg := testConfig(AttachLVA)
	cfg.Approx.Degree = 4
	s := New(cfg)
	// Warm the entry.
	s.LoadInt(0x400, 0x1000, 10, true)
	// Misses to fresh blocks: only every 5th should fetch.
	start := s.Result().Fetches
	for i := 1; i <= 10; i++ {
		s.LoadInt(0x400, uint64(0x1000+i*64), 10, true)
	}
	fetched := s.Result().Fetches - start
	if fetched != 2 {
		t.Fatalf("degree 4: %d fetches for 10 covered misses, want 2", fetched)
	}
}

func TestPrefetchAttachment(t *testing.T) {
	cfg := testConfig(AttachPrefetch)
	cfg.Prefetch.Degree = 4
	s := New(cfg)
	// Stride misses: the prefetcher should fill ahead so later loads hit.
	for i := 0; i < 8; i++ {
		s.LoadInt(0x400, uint64(i)*128, 1, false)
	}
	r := s.Result()
	if r.Fetches <= r.LoadMisses {
		t.Fatalf("prefetcher must fetch extra blocks: fetches=%d misses=%d",
			r.Fetches, r.LoadMisses)
	}
	if r.LoadMisses >= 8 {
		t.Fatalf("prefetches must convert some misses to hits: %d", r.LoadMisses)
	}
}

func TestStoreWriteAllocate(t *testing.T) {
	s := New(testConfig(AttachNone))
	s.Store(0x400, 0x1000)
	r := s.Result()
	if r.Fetches != 1 {
		t.Fatalf("store miss must write-allocate: fetches = %d", r.Fetches)
	}
	if r.Cache.StoreMiss != 1 {
		t.Fatalf("cache stats = %+v", r.Cache)
	}
}

func TestEffectiveMPKIMath(t *testing.T) {
	r := Result{Instructions: 2000, LoadMisses: 10, Covered: 6}
	if got := r.EffectiveMPKI(); got != 2.0 {
		t.Fatalf("effective MPKI = %v, want 2", got)
	}
	if got := r.RawMPKI(); got != 5.0 {
		t.Fatalf("raw MPKI = %v, want 5", got)
	}
	if got := r.Coverage(); got != 0.6 {
		t.Fatalf("coverage = %v", got)
	}
	zero := Result{}
	if zero.EffectiveMPKI() != 0 || zero.RawMPKI() != 0 || zero.Coverage() != 0 {
		t.Fatal("zero-result conventions")
	}
}

func TestTraceCapture(t *testing.T) {
	s := New(testConfig(AttachNone))
	var buf bytes.Buffer
	gw := trace.NewGridWriter(&buf, "unit", "k", 1)
	s.SetCapture(gw)
	s.SetThread(2)
	s.Tick(5)
	s.LoadFloat(0x400, 0x1000, 1.5, true)
	s.Store(0x404, 0x2000)
	if _, err := gw.Finish(s.Result().Instructions, nil); err != nil {
		t.Fatal(err)
	}
	gr, err := trace.NewGridReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	accs, _, err := gr.Next()
	if err != nil || len(accs) != 2 {
		t.Fatalf("recorded %d accesses, err %v; want 2", len(accs), err)
	}
	a := accs[0]
	if a.PC != 0x400 || a.Addr != 0x1000 || a.Thread != 2 || !a.Approx || a.Op != trace.Load {
		t.Fatalf("access 0 = %+v", a)
	}
	if a.Gap != 5 {
		t.Fatalf("gap = %d, want 5 (the Tick before the load)", a.Gap)
	}
	if accs[1].Op != trace.Store || accs[1].Gap != 0 {
		t.Fatalf("access 1 = %+v", accs[1])
	}
}

func TestSetThreadBounds(t *testing.T) {
	// The panic message is a documented contract (see SetThread's comment
	// and the nopanic analyzer): it must name the valid range.
	for _, id := range []int{-1, 256} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("SetThread(%d) must panic", id)
					return
				}
				want := fmt.Sprintf("memsim: thread id %d out of range [0,255]", id)
				if r != want {
					t.Errorf("SetThread(%d) panic = %v, want %q", id, r, want)
				}
			}()
			New(testConfig(AttachNone)).SetThread(id)
		}()
	}
	// Boundary ids are accepted.
	s := New(testConfig(AttachNone))
	s.SetThread(0)
	s.SetThread(255)
}

func TestLVPForcesAlwaysFetch(t *testing.T) {
	// Even if the caller configures a degree, the LVP attachment must
	// override it (prediction requires validation).
	cfg := testConfig(AttachLVP)
	cfg.Approx.Degree = 16
	cfg.Approx.Window = 0.5
	s := New(cfg)
	for i := 0; i < 20; i++ {
		s.LoadInt(0x400, uint64(0x1000+i*64), 7, true)
	}
	r := s.Result()
	if r.Fetches != r.LoadMisses {
		t.Fatalf("LVP must fetch every miss: fetches=%d misses=%d", r.Fetches, r.LoadMisses)
	}
}

func TestValueDelayWiring(t *testing.T) {
	cfg := testConfig(AttachLVA)
	cfg.Approx.ValueDelay = 2
	s := New(cfg)
	s.LoadInt(0x400, 0x1000, 10, true) // miss, training pending
	// The very next miss sees no history yet.
	s.LoadInt(0x400, 0x1040, 10, true)
	r0 := s.Result().Covered
	if r0 != 0 {
		t.Fatal("training must be delayed by the configured loads")
	}
	// Two more loads tick the countdown; after that, coverage appears.
	s.LoadInt(0x500, 0x5000, 1, false)
	s.LoadInt(0x500, 0x5008, 1, false)
	s.LoadInt(0x400, 0x1080, 10, true)
	if s.Result().Covered == 0 {
		t.Fatal("after the value delay the entry must cover")
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.L1.SizeBytes != 64<<10 || cfg.L1.Ways != 8 || cfg.L1.BlockBytes != 64 {
		t.Fatalf("phase-1 L1 must be 64KB/8-way/64B: %+v", cfg.L1)
	}
	if cfg.Approx.TableEntries != 512 || cfg.Approx.LHBSize != 4 {
		t.Fatalf("approximator defaults: %+v", cfg.Approx)
	}
	if err := cfg.L1.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAttachmentString(t *testing.T) {
	if AttachNone.String() != "precise" || AttachLVA.String() != "lva" ||
		AttachLVP.String() != "lvp" || AttachPrefetch.String() != "prefetch" {
		t.Fatal("attachment strings")
	}
}
