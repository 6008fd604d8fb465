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
	"lva/internal/obs/prov"
	"lva/internal/trace"
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
	L2Misses      uint64
	DRAMAccesses  uint64
	DRAMRowHits   uint64
	Writebacks    uint64

	FlitHops         uint64
	LowPowerFlitHops uint64
	Packets          uint64

	Invalidations uint64
	Flushes       uint64

	StallCycles      uint64 // cycles cores spent blocked on load misses
	StallEvents      uint64 // number of blocking waits
	PerCore          []CoreStat
	MissServiceTotal uint64 // summed service latency of demand fetches
	ServicedMisses   uint64

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

// AvgServiceLatency is the mean latency to service a demand fetch.
func (r Result) AvgServiceLatency() float64 {
	if r.ServicedMisses == 0 {
		return 0
	}
	return float64(r.MissServiceTotal) / float64(r.ServicedMisses)
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

// streamBlockAccesses sizes the blocks of RunStream's per-core queues: one
// grid chunk.
const streamBlockAccesses = 4096

// streamBlock is one fixed segment of a RunStream core queue. next comes
// first so the garbage collector scans one word, not the whole block.
type streamBlock struct {
	next *streamBlock
	n    int // filled entries
	accs [streamBlockAccesses]trace.Access
}

// accessQueue is a core's FIFO of decoded, not-yet-simulated accesses: a
// list of blocks, so pops never move memory. head is nil exactly when the
// queue is empty; otherwise pos < head.n.
type accessQueue struct {
	head, tail *streamBlock
	pos        int // next unread entry of head
}

// peek returns the oldest queued access; the queue must be non-empty.
func (q *accessQueue) peek() *trace.Access { return &q.head.accs[q.pos] }

// Sim is the full-system simulator. Build with New, feed a trace with Run.
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
	free  *streamBlock // spare queue blocks for RunStream
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

// Run replays the trace and returns the metrics. Each trace thread maps to
// one core. Run may be called once per Sim.
func (s *Sim) Run(tr *trace.Trace) Result {
	cores := s.newCores()
	// Count each core's share first so the per-core queues are allocated
	// exactly once instead of growing through repeated copies of
	// multi-million-access traces.
	counts := make([]int, s.cfg.Cores)
	for i := range tr.Accesses {
		counts[int(tr.Accesses[i].Thread)%s.cfg.Cores]++
	}
	queues := make([][]trace.Access, s.cfg.Cores)
	for i := range queues {
		queues[i] = make([]trace.Access, 0, counts[i])
	}
	for _, a := range tr.Accesses {
		i := int(a.Thread) % s.cfg.Cores
		queues[i] = append(queues[i], a)
	}

	// Advance cores one access at a time, always the core whose next
	// access will issue earliest (its current time plus the compute gap
	// before the access). Shared-resource reservations (links, L2 banks,
	// DRAM) then occur in near-global time order, which the monotonic
	// busy-until contention model requires; residual leapfrogging from
	// ROB/MSHR stalls is bounded by one miss latency.
	for {
		next := -1
		var nextKey uint64
		for i, q := range queues {
			if len(q) == 0 {
				continue
			}
			key := cores[i].cycleQ + uint64(q[0].Gap)
			if next < 0 || key < nextKey {
				next, nextKey = i, key
			}
		}
		if next < 0 {
			break
		}
		s.step(cores[next], &queues[next][0])
		queues[next] = queues[next][1:]
	}

	return s.finish(cores)
}

// RunStream replays a grid stream chunk by chunk, never materializing the
// whole trace. threads is the stream's thread count (GridHeader.Threads);
// thread t maps to core t mod Cores, and a core participates when at
// least one thread maps to it. Each core keeps a FIFO of decoded,
// not-yet-simulated accesses, refilled from the source whenever a
// participating core runs dry. The pick order — always the core whose next
// access issues earliest — is identical to Run's, because before every pick
// each participating core either has its true next access queued or the
// stream is exhausted.
//
// What stays buffered is set by how the recording lays out its threads,
// not by the chunk size. Interleaved threads (canneal) keep every queue a
// few accesses deep, but a recording that runs each thread as a contiguous
// partition buffers the earlier threads' accesses until the last thread's
// first access is decoded: measured peak windows are 16–85% of the stream
// for the six partitioned kernels and 0.5% for canneal. Queues are built
// from fixed 4096-access blocks recycled through the Sim, so consuming
// them never moves memory and live memory tracks the total window.
//
// RunStream consumes the whole stream or returns an error; an access whose
// thread is not below threads is an error (a recording footer is outside
// input). RunStream may be called once per Sim.
func (s *Sim) RunStream(threads int, src trace.ChunkSource) (Result, error) {
	cores := s.newCores()
	queues := make([]accessQueue, s.cfg.Cores)
	active := make([]bool, s.cfg.Cores)
	for t := 0; t < threads; t++ {
		active[t%s.cfg.Cores] = true
	}
	// hungry reports whether a participating core has nothing queued. With
	// no participating core (threads <= 0) it stays true, so the whole
	// stream is read and any access in it is rejected.
	hungry := func() bool {
		for i := range queues {
			if active[i] && queues[i].head == nil {
				return true
			}
		}
		return threads <= 0
	}
	eof := false
	var chunks, accesses uint64
	refill := func() error {
		for !eof && hungry() {
			accs, _, err := src.Next()
			if err == io.EOF {
				eof = true
				return nil
			}
			if err != nil {
				return err
			}
			chunks++
			for i := range accs {
				t := int(accs[i].Thread)
				if t >= threads {
					return fmt.Errorf("fullsys: access %d is on thread %d, but the stream declares %d threads", accesses+uint64(i), t, threads)
				}
				s.push(&queues[t%s.cfg.Cores], &accs[i])
			}
			accesses += uint64(len(accs))
		}
		return nil
	}

	if err := refill(); err != nil {
		return Result{}, err
	}
	for {
		next := -1
		var nextKey uint64
		for i := range queues {
			if queues[i].head == nil {
				continue
			}
			key := cores[i].cycleQ + uint64(queues[i].peek().Gap)
			if next < 0 || key < nextKey {
				next, nextKey = i, key
			}
		}
		if next < 0 {
			break
		}
		q := &queues[next]
		s.step(cores[next], q.peek())
		s.pop(q)
		// Only the core just stepped can have run dry.
		if q.head == nil {
			if err := refill(); err != nil {
				return Result{}, err
			}
		}
	}

	// One provenance cost sample per streamed run, only when a ledger is
	// active.
	if l := prov.Active(); l != nil {
		l.AddStream(chunks, accesses)
	}
	return s.finish(cores), nil
}

// push appends a copy of *a to q, taking a block from the free list when
// the tail block is full.
func (s *Sim) push(q *accessQueue, a *trace.Access) {
	b := q.tail
	if b == nil || b.n == len(b.accs) {
		if b = s.free; b != nil {
			s.free, b.next, b.n = b.next, nil, 0
		} else {
			b = new(streamBlock)
		}
		if q.tail == nil {
			q.head = b
		} else {
			q.tail.next = b
		}
		q.tail = b
	}
	b.accs[b.n] = *a
	b.n++
}

// pop drops q's oldest access and returns its block to the free list once
// the block is used up.
func (s *Sim) pop(q *accessQueue) {
	b := q.head
	if q.pos++; q.pos < b.n {
		return
	}
	q.head, q.pos = b.next, 0
	if q.head == nil {
		q.tail = nil
	}
	b.next, s.free = s.free, b
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
	for _, l2 := range s.l2 {
		st := l2.Stats()
		s.res.L2Misses += st.Misses()
	}
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
			s.res.StallEvents++
			c.cycleQ = p.completeAt * 4
		}
	}
}

// step simulates access a, the next one of core c.
func (s *Sim) step(c *coreState, a *trace.Access) {
	c.seen++

	// Non-memory instructions since the previous access on this thread.
	gap := uint64(a.Gap)
	c.insts += gap
	c.cycleQ += gap // one quarter-cycle each at 4-wide
	s.retire(c, c.insts+1)

	// The access instruction itself.
	c.insts++
	c.cycleQ++
	now := c.cycles()

	block := s.l1[c.id].BlockAddr(a.Addr)
	s.tally.L1Accesses++

	if a.Op == trace.Store {
		s.res.Stores++
		if s.l1[c.id].Store(a.Addr) {
			// Hit: may still need ownership.
			if s.dir.StateOf(block) != coherence.Modified {
				s.storeUpgrade(c.id, block, now)
			}
			return
		}
		// Store miss: write-allocate through the store buffer; the core
		// does not stall beyond MSHR availability.
		s.issueFetch(c, block, true, false)
		s.l1[c.id].MarkDirty(a.Addr)
		return
	}

	s.res.Loads++
	if c.approx != nil {
		c.approx.OnLoad()
	}
	if s.l1[c.id].Load(a.Addr) {
		return
	}
	s.res.L1LoadMisses++

	if a.Approx && c.approx != nil {
		s.tally.ApproxAccesses++
		d := c.approx.OnMiss(a.PC, a.Value)
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
		s.res.StallEvents++
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
		if evicted, _, dirtyEvict := s.l2[home].Fill(block, false); dirtyEvict {
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

	// Install in L1, handling the victim.
	if evicted, was, dirty := s.l1[node].Fill(block, false); was {
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
				s.l2[evHome].Fill(evBlock, false)
			}
			s.l2[evHome].MarkDirty(evBlock)
		}
	}
	if store {
		s.l1[node].MarkDirty(block)
	}

	s.res.MissServiceTotal += t - now
	s.res.ServicedMisses++
	return t
}
