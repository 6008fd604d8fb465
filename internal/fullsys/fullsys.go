// Package fullsys is the phase-2 simulator (paper §V-B): a trace-driven,
// cycle-approximate model of a 4-core system — 4-wide cores with a
// 32-entry-ROB overlap model, private L1 data caches, a distributed shared
// L2 with an MSI directory, a 2x2 mesh NoC with 3-cycle routers, and
// 160-cycle main memory. It replays traces captured by the phase-1
// simulator, attaches a per-core load value approximator, and reports
// execution time, interconnect traffic and dynamic energy — the inputs to
// Figures 10 and 11.
//
// The paper uses FeS2 (full x86 OoO) + BookSim; this model keeps the
// properties those results depend on: load misses expose latency only once
// the ROB fills, covered approximate loads never stall the core, elided
// fetches remove L2/DRAM/NoC events, and shared-L2/NoC contention couples
// the cores.
package fullsys

import (
	"fmt"
	"io"
	"math/bits"

	"lva/internal/cache"
	"lva/internal/coherence"
	"lva/internal/core"
	"lva/internal/dram"
	"lva/internal/energy"
	"lva/internal/noc"
	"lva/internal/trace"
	"lva/internal/value"
)

// Config assembles a full-system simulation (defaults follow Table II).
type Config struct {
	// Cores is the core count (paper: 4, one per mesh node).
	Cores int
	// IssueWidth is instructions per cycle when not stalled (paper: 4).
	IssueWidth int
	// ROB is the reorder-buffer depth: how many instructions may issue
	// past the oldest outstanding load miss (paper: 32).
	ROB int
	// MSHRs bounds in-flight block fetches per core; a core that needs a
	// fetch while all MSHRs are busy stalls until one frees, which also
	// throttles off-critical-path training fetches.
	MSHRs int
	// L1 is the per-core private data cache (paper: 16 KB, 8-way, 64 B).
	L1 cache.Config
	// L2 is one bank of the distributed shared L2 (512 KB total across
	// Cores banks, 16-way, 6-cycle).
	L2 cache.Config
	// L2Occupancy is the bank busy time per access (bandwidth model).
	L2Occupancy uint64
	// DRAM is the main-memory device model (banked, row buffers),
	// calibrated so a row miss costs the paper's 160 cycles.
	DRAM dram.Config
	// NoC is the mesh configuration.
	NoC noc.Config
	// Approx, when non-nil, attaches a per-core load value approximator
	// with this configuration; nil replays precisely.
	Approx *core.Config
	// TrainingLane, when non-nil, routes training fetches (covered
	// approximate misses that still fetch to train) over a deprioritized,
	// low-power NoC lane and slower memory path — the §VI-C optimization
	// enabled by LVA's resilience to value delay. Demand fetches are
	// unaffected.
	TrainingLane *TrainingLaneConfig
	// Energy is the per-event energy model.
	Energy energy.Model
}

// TrainingLaneConfig parameterizes the low-power lane for training fetches.
type TrainingLaneConfig struct {
	// RouterCycles is the per-hop router latency of the slow lane
	// (higher than the main lane's 3 cycles).
	RouterCycles uint64
	// ExtraLatency adds a fixed delay per training fetch, modeling
	// low-energy memory modules for approximate data.
	ExtraLatency uint64
}

// DefaultTrainingLane returns a representative slow-lane configuration.
func DefaultTrainingLane() *TrainingLaneConfig {
	return &TrainingLaneConfig{RouterCycles: 9, ExtraLatency: 60}
}

// DefaultConfig returns the paper's Table II full-system configuration.
func DefaultConfig() Config {
	return Config{
		Cores:       4,
		IssueWidth:  4,
		ROB:         32,
		MSHRs:       8,
		L1:          cache.Config{SizeBytes: 16 << 10, Ways: 8, BlockBytes: 64, LatencyCycles: 1},
		L2:          cache.Config{SizeBytes: 128 << 10, Ways: 16, BlockBytes: 64, LatencyCycles: 6},
		L2Occupancy: 2,
		DRAM:        dram.DefaultConfig(),
		NoC:         noc.DefaultConfig(),
		Energy:      energy.Default32nm(),
	}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	if c.Cores <= 0 || c.Cores > c.NoC.Nodes() {
		return fmt.Errorf("fullsys: cores %d must be in [1,%d]", c.Cores, c.NoC.Nodes())
	}
	if c.IssueWidth <= 0 {
		return fmt.Errorf("fullsys: issue width must be positive, got %d", c.IssueWidth)
	}
	if c.ROB <= 0 {
		return fmt.Errorf("fullsys: ROB must be positive, got %d", c.ROB)
	}
	if c.MSHRs <= 0 {
		return fmt.Errorf("fullsys: MSHRs must be positive, got %d", c.MSHRs)
	}
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	return c.NoC.Validate()
}

// Result carries the phase-2 metrics.
type Result struct {
	Cycles       uint64 // makespan: slowest core's finish time
	Instructions uint64
	Loads        uint64
	Stores       uint64

	L1LoadMisses  uint64
	Covered       uint64 // misses satisfied by the approximator
	Fetches       uint64 // block fetches issued into the hierarchy
	ElidedFetches uint64 // fetches skipped via approximation degree
	L2Accesses    uint64
	DRAMAccesses  uint64
	DRAMRowHits   uint64
	Writebacks    uint64

	FlitHops         uint64
	LowPowerFlitHops uint64
	Packets          uint64

	Invalidations uint64
	Flushes       uint64

	StallCycles uint64 // cycles cores spent blocked on load misses
	PerCore     []CoreStat

	Energy *energy.Tally
}

// CoreStat summarizes one core's execution.
type CoreStat struct {
	Instructions uint64
	Cycles       uint64
	Accesses     int
}

// IPC returns this core's instructions per cycle.
func (c CoreStat) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Instructions) / float64(c.Cycles)
}

// IPC returns aggregate instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// AvgExposedMissLatency is the mean stall time per L1 load miss: the miss
// latency the cores actually saw (covered misses expose none).
func (r Result) AvgExposedMissLatency() float64 {
	if r.L1LoadMisses == 0 {
		return 0
	}
	return float64(r.StallCycles) / float64(r.L1LoadMisses)
}

// MissEDP returns the paper's Figure 11 metric: the energy spent servicing
// L1 misses (the fetch path beyond the L1) times the average exposed miss
// latency. Compare it normalized against precise execution.
func (r Result) MissEDP() float64 {
	return r.Energy.FetchPathPJ() * r.AvgExposedMissLatency()
}

type pendingMiss struct {
	completeAt uint64 // cycles
	atInst     uint64
}

type coreState struct {
	id     int
	seen   int    // accesses simulated
	cycleQ uint64 // quarter-cycles (4-wide issue)
	insts  uint64
	// pending is a ring of capacity ROB holding the npending outstanding
	// load misses in issue order, oldest at pending[head]. retire runs
	// before every push and leaves fewer than ROB entries, so it never
	// overflows.
	pending        []pendingMiss
	head, npending int
	mshr           []uint64 // completion times of in-flight fetches, capacity MSHRs
	approx         *core.Approximator
	// blk and pos are the core's cursor into a Stream: the next access is
	// blk.recs[pos], and blk is nil once the core's accesses are done.
	blk *streamBlock
	pos int
}

func (c *coreState) cycles() uint64 { return c.cycleQ / 4 }

// popPending drops the oldest outstanding miss.
func (c *coreState) popPending() {
	c.head++
	if c.head == len(c.pending) {
		c.head = 0
	}
	c.npending--
}

// pushPending records a new outstanding miss.
func (c *coreState) pushPending(p pendingMiss) {
	i := c.head + c.npending
	if i >= len(c.pending) {
		i -= len(c.pending)
	}
	c.pending[i] = p
	c.npending++
}

// streamBlockAccesses sizes the blocks a Stream files each core's accesses
// into: one grid chunk.
const streamBlockAccesses = 4096

// record is one access as a Stream holds it: 32 bytes, where a
// trace.Access takes 40. gap is the access's per-thread instruction gap
// (trace.Access.Gap); flags holds recStore, recApprox and recFloat. A
// store's bits are zero.
type record struct {
	addr, pc, bits uint64
	gap            uint32
	flags          uint8
}

// record flags.
const (
	recStore  uint8 = 1 << iota // a store; otherwise a load
	recApprox                   // the access is annotated approximate
	recFloat                    // the load's value is a float64
)

// set fills r with one access whose per-thread gap is gap. It writes the
// fields one by one: a record built on the stack and copied in is stored
// in pieces and reloaded whole, a store-forwarding stall on every access.
func (r *record) set(pc, addr uint64, v value.Value, op trace.Op, approx bool, gap uint32) {
	bits, flags := v.Bits, uint8(0)
	if v.Kind == value.Float {
		flags = recFloat
	}
	if op == trace.Store {
		bits, flags = 0, recStore
	}
	if approx {
		flags |= recApprox
	}
	r.addr, r.pc, r.bits, r.gap, r.flags = addr, pc, bits, gap, flags
}

// val is the load's precise value.
func (r *record) val() value.Value {
	if r.flags&recFloat != 0 {
		return value.Value{Bits: r.bits, Kind: value.Float}
	}
	return value.Value{Bits: r.bits, Kind: value.Int}
}

// streamBlock is one fixed segment of a core's accesses in a Stream. next
// comes first so the garbage collector scans one word, not the whole block
// (a record holds no pointers). A block in a Stream is never empty.
type streamBlock struct {
	next *streamBlock
	n    int // filled entries
	recs [streamBlockAccesses]record
}

// Stream is an access stream filed for a fixed core count: each core's
// accesses in stream order, in fixed blocks. A Capture or Decode builds it;
// it is read-only afterwards, so any number of Sims may Run it
// concurrently.
//
// A Stream holds every access, 32 bytes each, in blocks that nothing
// recycles: the caller decides how many Streams are alive at once.
type Stream struct {
	heads []*streamBlock // per core; nil when no access maps to the core
}

// Capture builds a Stream while a phase-1 run executes: it implements
// memsim.Sink, and files each access into its core's blocks exactly as
// Decode files the LVAG recording of the same run, so the two Streams are
// equal block for block. Thread t runs on core t mod cores, and an access's
// gap is the global instruction count since its thread's previous access,
// clamped to 2^30 (GridReader's rule). Not safe for concurrent use.
type Capture struct {
	st    *Stream
	tails []*streamBlock
	// lastEnd is, per thread, the global instruction index just past the
	// thread's previous access.
	lastEnd [256]uint64
	n       uint64 // accesses filed
}

// NewCapture starts an empty Stream for cores cores. It panics if cores is
// not positive, since core counts are fixed experiment parameters.
func NewCapture(cores int) *Capture {
	if cores <= 0 {
		panic(fmt.Sprintf("fullsys: cannot capture a stream for %d cores", cores))
	}
	return &Capture{st: &Stream{heads: make([]*streamBlock, cores)}, tails: make([]*streamBlock, cores)}
}

// Access implements memsim.Sink. insts is the global instruction count
// before the access retires; a store's value is ignored.
func (c *Capture) Access(pc, addr uint64, v value.Value, op trace.Op, approx bool, thread uint8, insts uint64) {
	gap := insts - c.lastEnd[thread]
	if gap > 1<<30 {
		gap = 1 << 30
	}
	c.lastEnd[thread] = insts + 1
	c.slot(int(thread)%len(c.tails)).set(pc, addr, v, op, approx, uint32(gap))
}

// slot appends an access to core's accesses and returns its record for the
// caller to set.
func (c *Capture) slot(core int) *record {
	b := c.tails[core]
	if b == nil || b.n == len(b.recs) {
		b = c.grow(core)
	}
	b.n++
	c.n++
	return &b.recs[b.n-1]
}

// grow appends an empty block to core's list and returns it. It is the only
// place a Capture allocates after NewCapture, and it stays out of line so
// the allocation budget sees none in Access.
//
//go:noinline
func (c *Capture) grow(core int) *streamBlock {
	nb := new(streamBlock)
	if b := c.tails[core]; b == nil {
		c.st.heads[core] = nb
	} else {
		b.next = nb
	}
	c.tails[core] = nb
	return nb
}

// Stream returns the captured Stream. Call it after the last access.
func (c *Capture) Stream() *Stream { return c.st }

// Decode reads src to the end in one pass and files each access into its
// core's blocks, as a Capture of the recorded run would: thread t runs on
// core t mod cores, and threads is the stream's thread count
// (GridHeader.Threads). An access whose thread is not below threads is an
// error (a recording footer is outside input), as is a source error; a
// Stream is returned only for the whole stream.
func Decode(cores, threads int, src trace.ChunkSource) (*Stream, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("fullsys: cannot decode a stream for %d cores", cores)
	}
	c := NewCapture(cores)
	for {
		accs, _, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for i := range accs {
			a := &accs[i]
			t := int(a.Thread)
			if t >= threads {
				return nil, fmt.Errorf("fullsys: access %d is on thread %d, but the stream declares %d threads", c.n, t, threads)
			}
			c.slot(t%cores).set(a.PC, a.Addr, a.Value, a.Op, a.Approx, a.Gap)
		}
	}
	return c.Stream(), nil
}

// Sim is the full-system simulator. Build with New, then feed it a
// recording with RunStream, or a captured or decoded Stream with Run.
//
// Phase 2's L1 demand counts are Result.Loads, Stores and L1LoadMisses.
// step takes L1 hits inline with Probe and Touch/TouchStore, so the L1s'
// own Stats count fills and evictions but no loads, stores or misses.
type Sim struct {
	cfg   Config
	mesh  *noc.Mesh
	slow  *noc.Mesh // low-power training lane (nil unless configured)
	dir   *coherence.Directory
	l1    []*cache.Cache
	l2    []*cache.Cache
	l2Fre []uint64
	dram  *dram.DRAM
	tally *energy.Tally
	res   Result
}

// New builds a simulator; it panics on an invalid Config since
// configurations are fixed experiment parameters.
func New(cfg Config) *Sim {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &Sim{
		cfg:   cfg,
		mesh:  noc.New(cfg.NoC),
		dir:   coherence.NewDirectory(cfg.Cores),
		l2Fre: make([]uint64, cfg.Cores),
		dram:  dram.New(cfg.DRAM),
		tally: energy.NewTally(cfg.Energy),
	}
	if cfg.TrainingLane != nil {
		laneCfg := cfg.NoC
		laneCfg.RouterCycles = cfg.TrainingLane.RouterCycles
		s.slow = noc.New(laneCfg)
	}
	for i := 0; i < cfg.Cores; i++ {
		s.l1 = append(s.l1, cache.New(cfg.L1))
		s.l2 = append(s.l2, cache.New(cfg.L2))
	}
	return s
}

// homeOf maps a block address to its L2 home bank / mesh node.
func (s *Sim) homeOf(block uint64) int {
	return int((block >> 6) % uint64(s.cfg.Cores))
}

// newCores builds the per-core replay state.
func (s *Sim) newCores() []*coreState {
	cores := make([]*coreState, s.cfg.Cores)
	for i := range cores {
		cores[i] = &coreState{
			id:      i,
			pending: make([]pendingMiss, s.cfg.ROB),
			mshr:    make([]uint64, 0, s.cfg.MSHRs),
		}
		if s.cfg.Approx != nil {
			cores[i].approx = core.New(*s.cfg.Approx)
		}
	}
	return cores
}

// RunStream replays a grid stream: it decodes src (see Decode) for this
// Sim's core count, then runs the decoded Stream. threads is the stream's
// thread count (GridHeader.Threads). Callers that run one recording under
// several configurations decode it once and call Run on each Sim instead.
// RunStream may be called once per Sim.
func (s *Sim) RunStream(threads int, src trace.ChunkSource) (Result, error) {
	st, err := Decode(s.cfg.Cores, threads, src)
	if err != nil {
		return Result{}, err
	}
	return s.Run(st)
}

// Run replays a Stream, which must have been captured or decoded for this
// Sim's core count. It only reads st. Run may be called once per Sim.
//
// Cores advance one access at a time, always the core whose next access
// will issue earliest (its current time plus the compute gap before the
// access). Shared-resource reservations (links, L2 banks, DRAM) then occur
// in near-global time order, which the monotonic busy-until contention
// model requires; residual leapfrogging from ROB/MSHR stalls is bounded by
// one miss latency.
func (s *Sim) Run(st *Stream) (Result, error) {
	if len(st.heads) != s.cfg.Cores {
		return Result{}, fmt.Errorf("fullsys: stream filed for %d cores, simulator has %d", len(st.heads), s.cfg.Cores)
	}
	cores := s.newCores()
	for i, c := range cores {
		c.blk = st.heads[i]
	}
	for {
		var next *coreState
		var nextKey uint64
		for _, c := range cores {
			if c.blk == nil {
				continue
			}
			key := c.cycleQ + uint64(c.blk.recs[c.pos].gap)
			if next == nil || key < nextKey {
				next, nextKey = c, key
			}
		}
		if next == nil {
			break
		}
		s.step(next, &next.blk.recs[next.pos])
		if next.pos++; next.pos == next.blk.n {
			next.blk, next.pos = next.blk.next, 0
		}
	}
	return s.finish(cores), nil
}

// finish drains outstanding misses and assembles the Result.
func (s *Sim) finish(cores []*coreState) Result {
	for _, c := range cores {
		// Wait out any outstanding misses at the end of the stream.
		for ; c.npending > 0; c.popPending() {
			if p := c.pending[c.head]; p.completeAt*4 > c.cycleQ {
				s.res.StallCycles += p.completeAt - c.cycleQ/4
				c.cycleQ = p.completeAt * 4
			}
		}
		if c.approx != nil {
			c.approx.Drain()
			st := c.approx.Stats()
			s.res.ElidedFetches += st.ElidedFetches
		}
		if c.cycles() > s.res.Cycles {
			s.res.Cycles = c.cycles()
		}
		s.res.Instructions += c.insts
		s.res.PerCore = append(s.res.PerCore, CoreStat{
			Instructions: c.insts,
			Cycles:       c.cycles(),
			Accesses:     c.seen,
		})
	}

	nst := s.mesh.Stats()
	s.res.FlitHops = nst.FlitHops
	s.res.Packets = nst.Packets
	if s.slow != nil {
		sst := s.slow.Stats()
		s.res.LowPowerFlitHops = sst.FlitHops
		s.res.Packets += sst.Packets
		s.tally.LowPowerFlitHops = sst.FlitHops
	}
	s.res.Invalidations = s.dir.Invalidations
	s.res.Flushes = s.dir.Flushes
	s.tally.FlitHops = nst.FlitHops
	s.res.DRAMRowHits = s.dram.Stats().RowHits
	s.res.Energy = s.tally
	return s.res
}

// retire pops misses that completed by now and stalls on the oldest one if
// the ROB would overflow.
func (s *Sim) retire(c *coreState, instsAboutToBe uint64) {
	for c.npending > 0 && c.pending[c.head].completeAt*4 <= c.cycleQ {
		c.popPending()
	}
	for c.npending > 0 && instsAboutToBe-c.pending[c.head].atInst >= uint64(s.cfg.ROB) {
		p := c.pending[c.head]
		c.popPending()
		if p.completeAt*4 > c.cycleQ {
			s.res.StallCycles += p.completeAt - c.cycleQ/4
			c.cycleQ = p.completeAt * 4
		}
	}
}

// step simulates access a, the next one of core c.
func (s *Sim) step(c *coreState, a *record) {
	c.seen++

	// Non-memory instructions since the previous access on this thread.
	gap := uint64(a.gap)
	c.insts += gap
	c.cycleQ += gap // one quarter-cycle each at 4-wide
	s.retire(c, c.insts+1)

	// The access instruction itself.
	c.insts++
	c.cycleQ++
	now := c.cycles()

	l1 := s.l1[c.id]
	block := l1.BlockAddr(a.addr)
	s.tally.L1Accesses++

	// Probe plus Touch/TouchStore instead of l1.Load/Store: all three
	// inline, so a hit to a set's most recent line makes no cache-package
	// call. The demand counts live in s.res, not in the L1's Stats.
	if a.flags&recStore != 0 {
		s.res.Stores++
		if idx := l1.Probe(a.addr); idx >= 0 {
			l1.TouchStore(idx)
			// Hit: may still need ownership.
			if s.dir.StateOf(block) != coherence.Modified {
				s.storeUpgrade(c.id, block, now)
			}
			return
		}
		// Store miss: write-allocate through the store buffer; the core
		// does not stall beyond MSHR availability. fetchBlock installs
		// the block dirty.
		s.issueFetch(c, block, true, false)
		return
	}

	s.res.Loads++
	if c.approx != nil {
		c.approx.OnLoad()
	}
	if idx := l1.Probe(a.addr); idx >= 0 {
		l1.Touch(idx)
		return
	}
	s.res.L1LoadMisses++

	if a.flags&recApprox != 0 && c.approx != nil {
		s.tally.ApproxAccesses++
		d := c.approx.OnMiss(a.pc, a.val())
		if d.Fetch {
			s.tally.ApproxAccesses++ // training write
		}
		if d.Approximated {
			s.res.Covered++
			if d.Fetch {
				// Training fetch: off the critical path; the core
				// continues with the approximate value, so the fetch may
				// take the slow low-power lane if one is configured.
				s.issueFetch(c, block, false, true)
			}
			return
		}
		// Not covered: behaves like a precise miss below.
		if d.Fetch {
			done := s.issueFetch(c, block, false, false)
			c.pushPending(pendingMiss{completeAt: done, atInst: c.insts})
		}
		return
	}

	done := s.issueFetch(c, block, false, false)
	c.pushPending(pendingMiss{completeAt: done, atInst: c.insts})
}

// issueFetch sends a block fetch through an MSHR: when all MSHRs hold
// in-flight fetches the core stalls until the earliest completes. This is
// the back-pressure that keeps non-blocking (training and store-buffer)
// fetches from queueing unboundedly in the hierarchy.
func (s *Sim) issueFetch(c *coreState, block uint64, store, training bool) uint64 {
	now := c.cycles()
	live := c.mshr[:0]
	for _, t := range c.mshr {
		if t > now {
			live = append(live, t)
		}
	}
	c.mshr = live
	if len(c.mshr) >= s.cfg.MSHRs {
		min, idx := c.mshr[0], 0
		for i, t := range c.mshr {
			if t < min {
				min, idx = t, i
			}
		}
		s.res.StallCycles += min - now
		c.cycleQ = min * 4
		now = min
		c.mshr = append(c.mshr[:idx], c.mshr[idx+1:]...)
	}
	done := s.fetchBlock(c.id, block, now, store, training)
	c.mshr = append(c.mshr, done)
	return done
}

// storeUpgrade obtains Modified permission for a block already present in
// the requester's L1 (invalidations travel the NoC; the store buffer hides
// the latency from the core).
func (s *Sim) storeUpgrade(node int, block uint64, now uint64) {
	home := s.homeOf(block)
	t := s.mesh.SendCtrl(node, home, now)
	act := s.dir.Store(block, node)
	t = s.coherenceActions(act, home, block, t)
	s.mesh.SendCtrl(home, node, t) // ack
}

// coherenceActions performs owner flushes and sharer invalidations implied
// by a directory action, returning the time all acks have reached home.
func (s *Sim) coherenceActions(act coherence.Action, home int, block uint64, t uint64) uint64 {
	latest := t
	if act.FlushFrom >= 0 {
		ft := s.mesh.SendCtrl(home, act.FlushFrom, t)
		ft += uint64(s.cfg.L1.LatencyCycles)
		s.tally.L1Accesses++
		ft = s.mesh.SendData(act.FlushFrom, home, ft)
		if ft > latest {
			latest = ft
		}
	}
	for inv := act.Invalidate; inv != 0; inv &= inv - 1 {
		n := bits.TrailingZeros64(inv)
		it := s.mesh.SendCtrl(home, n, t)
		s.l1[n].Invalidate(block)
		s.tally.L1Accesses++
		it = s.mesh.SendCtrl(n, home, it)
		if it > latest {
			latest = it
		}
	}
	return latest
}

// fetchBlock services a demand or training fetch of a block into node's L1
// and returns its completion time. Training fetches use the low-power lane
// when one is configured.
func (s *Sim) fetchBlock(node int, block uint64, now uint64, store, training bool) uint64 {
	s.res.Fetches++
	home := s.homeOf(block)
	mesh := s.mesh
	if training && s.slow != nil {
		mesh = s.slow
	}

	// Request to the home L2 bank.
	t := mesh.SendCtrl(node, home, now)
	if free := s.l2Fre[home]; free > t {
		t = free
	}
	s.l2Fre[home] = t + s.cfg.L2Occupancy
	t += uint64(s.cfg.L2.LatencyCycles)
	s.tally.L2Accesses++
	s.res.L2Accesses++

	hit := s.l2[home].Load(block)
	if !hit {
		// DRAM access and L2 refill.
		t = s.dram.Access(block, t)
		s.tally.DRAMAccesses++
		s.res.DRAMAccesses++
		if evicted, _, dirtyEvict := s.l2[home].FillAbsent(block, false); dirtyEvict {
			// L2 victim writeback to memory (fire-and-forget; it still
			// occupies the device).
			s.dram.Access(evicted, t)
			s.tally.DRAMAccesses++
			s.res.DRAMAccesses++
		}
	}

	// Coherence at the home node.
	var act coherence.Action
	if store {
		act = s.dir.Store(block, node)
	} else {
		act = s.dir.Load(block, node)
	}
	t = s.coherenceActions(act, home, block, t)

	// Data response to the requester.
	t = mesh.SendData(home, node, t)
	if training && s.cfg.TrainingLane != nil {
		t += s.cfg.TrainingLane.ExtraLatency
	}

	// Install in L1, handling the victim. step saw the block miss in this
	// L1, and coherence since then only invalidated other L1s, so it is
	// still absent.
	if evicted, was, dirty := s.l1[node].FillAbsent(block, false); was {
		evBlock := s.l1[node].BlockAddr(evicted)
		s.dir.Evict(evBlock, node)
		if dirty {
			// Dirty victims write back to their home bank
			// (fire-and-forget traffic + L2 update).
			s.res.Writebacks++
			evHome := s.homeOf(evBlock)
			s.mesh.SendData(node, evHome, t)
			s.tally.L2Accesses++
			s.res.L2Accesses++
			if !s.l2[evHome].Store(evBlock) {
				s.l2[evHome].FillAbsent(evBlock, false)
				s.l2[evHome].MarkDirty(evBlock)
			}
		}
	}
	if store {
		s.l1[node].MarkDirty(block)
	}
	return t
}
