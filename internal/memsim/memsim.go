// Package memsim is the phase-1, Pin-like memory-hierarchy simulator
// (paper §V-A). Workloads issue every load and store through the Memory
// interface; the simulator models a private L1 data cache and attaches one
// of: nothing (precise), a load value approximator, an idealized load value
// predictor, or a GHB prefetcher. For covered approximate loads the
// returned value is clobbered with the approximation, dynamically altering
// the execution of the workload — exactly the paper's methodology for
// measuring final output error.
package memsim

import (
	"fmt"

	"lva/internal/cache"
	"lva/internal/core"
	"lva/internal/obs/attr"
	"lva/internal/prefetch"
	"lva/internal/trace"
	"lva/internal/value"
)

// Memory is the interface workloads use for every annotated memory access.
// Loads pass the precise value in; the simulator returns either that value
// (hit, or uncovered miss) or an approximation (covered miss of a load with
// approx=true).
type Memory interface {
	// LoadFloat performs a data load of a float64.
	LoadFloat(pc, addr uint64, precise float64, approx bool) float64
	// LoadInt performs a data load of a signed integer.
	LoadInt(pc, addr uint64, precise int64, approx bool) int64
	// Store performs a data store (never approximated, §V-A).
	Store(pc, addr uint64)
	// Tick accounts n non-memory instructions (ALU work between accesses).
	Tick(n uint64)
	// SetThread tags subsequent accesses with a logical thread id, used
	// when capturing traces for the 4-core phase-2 simulator.
	SetThread(t int)
}

// Attachment selects what augments the L1.
type Attachment uint8

const (
	// AttachNone is precise execution: every miss fetches, no coverage.
	AttachNone Attachment = iota
	// AttachLVA attaches the load value approximator.
	AttachLVA
	// AttachLVP attaches the idealized load value predictor baseline.
	AttachLVP
	// AttachPrefetch attaches the GHB prefetcher (applied to all data).
	AttachPrefetch
)

func (a Attachment) String() string {
	switch a {
	case AttachLVA:
		return "lva"
	case AttachLVP:
		return "lvp"
	case AttachPrefetch:
		return "prefetch"
	default:
		return "precise"
	}
}

// Config assembles a phase-1 simulation.
type Config struct {
	L1       cache.Config
	Attach   Attachment
	Approx   core.Config     // used by AttachLVA / AttachLVP
	Prefetch prefetch.Config // used by AttachPrefetch
}

// DefaultConfig returns the paper's phase-1 setup: 64 KB 8-way 64 B-block
// L1 with the Table II baseline approximator attached.
func DefaultConfig() Config {
	return Config{
		L1:     cache.Config{SizeBytes: 64 << 10, Ways: 8, BlockBytes: 64, LatencyCycles: 1},
		Attach: AttachLVA,
		Approx: core.DefaultConfig(),
	}
}

// Result aggregates the phase-1 metrics the paper's figures are built from.
type Result struct {
	Instructions uint64
	Loads        uint64
	Stores       uint64
	LoadMisses   uint64 // raw L1 load misses, before coverage
	Covered      uint64 // misses satisfied by an approximation/prediction
	Fetches      uint64 // blocks fetched into the L1 (demand + prefetch)
	StaticPCs    int    // distinct PCs that issued approximate loads

	Approx   core.Stats
	Prefetch prefetch.Stats
	Cache    cache.Stats
}

// EffectiveMPKI is load misses per kilo-instruction with covered misses
// counted as hits ("an approximated value is a cache hit", §V-A).
func (r Result) EffectiveMPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.LoadMisses-r.Covered) * 1000 / float64(r.Instructions)
}

// RawMPKI is load misses per kilo-instruction ignoring coverage.
func (r Result) RawMPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.LoadMisses) * 1000 / float64(r.Instructions)
}

// Coverage is the fraction of L1 load misses that were covered.
func (r Result) Coverage() float64 {
	if r.LoadMisses == 0 {
		return 0
	}
	return float64(r.Covered) / float64(r.LoadMisses)
}

// Sim is the concrete phase-1 simulator. Workload kernels call its methods
// directly (devirtualized hot path); it also implements Memory for callers
// that need the interface seam (the ISA VM, tests, external wrappers). Not
// safe for concurrent use.
type Sim struct {
	cfg      Config
	l1       *cache.Cache
	approx   *core.Approximator
	pref     *prefetch.Prefetcher
	thread   uint8
	insts    uint64
	loads    uint64
	stores   uint64
	loadMiss uint64
	storMiss uint64
	covered  uint64
	fetches  uint64
	approxPC pcSet
	// lastApproxPC short-circuits the approxPC map insert: kernels issue
	// millions of approximate loads from a handful of sites, usually the
	// same PC back to back, and the map hash dominated the load path.
	lastApproxPC uint64
	lastPCValid  bool

	// at is non-nil only when a flight recorder was attached for this run.
	// Its hooks live inside the annotated-load branch, so the plain
	// (approx=false) hit path never tests it.
	at *attr.Recorder

	// sink is the optional capture sink (SetCapture). It is tested once
	// per access, and called only in runs that capture.
	sink Sink
}

// Simulator is kept as an alias for existing callers; new code should use
// the shorter concrete name.
type Simulator = Sim

var _ Memory = (*Sim)(nil)

// New builds a simulator; it panics on an invalid Config since
// configurations are fixed experiment parameters.
func New(cfg Config) *Sim {
	if err := cfg.L1.Validate(); err != nil {
		panic(err)
	}
	s := &Sim{
		cfg: cfg,
		l1:  cache.New(cfg.L1),
	}
	switch cfg.Attach {
	case AttachLVA:
		s.approx = core.New(cfg.Approx)
	case AttachLVP:
		c := cfg.Approx
		c.Mode = core.ModeLVP
		c.Window = 0 // exact match only
		c.Degree = 0 // always fetch
		s.approx = core.New(c)
	case AttachPrefetch:
		p := cfg.Prefetch
		if p.GHBEntries == 0 {
			p = prefetch.DefaultConfig()
		}
		p.BlockBytes = cfg.L1.BlockBytes
		s.pref = prefetch.New(p)
	}
	return s
}

// Sink receives every access a simulator issues, in program order: the
// PC, the address, the precise value (zero for stores), the access type,
// the approximate annotation, the thread id, and the global instruction
// count before the access retires. *trace.GridWriter records the accesses
// as LVAG; fullsys.Capture files them for the phase-2 model.
type Sink interface {
	Access(pc, addr uint64, v value.Value, op trace.Op, approx bool, thread uint8, insts uint64)
}

var _ Sink = (*trace.GridWriter)(nil)

// SetCapture directs the simulator to hand every access to sink (nil
// detaches). Call before running the workload; finishing the capture (a
// GridWriter's Finish, a Capture's Stream) is the caller's.
func (s *Sim) SetCapture(sink Sink) { s.sink = sink }

// SetAttribution attaches a flight recorder for this run (nil detaches),
// wiring the attached approximator's training hooks too. Call before
// running the workload; the experiment harness wires one per run when
// attr.Enabled(). Attribution is observational only: it never alters
// simulation behaviour or Result.
func (s *Sim) SetAttribution(rec *attr.Recorder) {
	s.at = rec
	if s.approx != nil {
		s.approx.SetAttribution(rec)
	}
}

// SetThread implements Memory. It panics if t is outside [0,255], the
// range the trace encoding's uint8 thread field can represent: thread ids
// come from fixed workload topology, so an illegal one is a programming
// error.
func (s *Sim) SetThread(t int) {
	if t < 0 || t > 255 {
		panic(fmt.Sprintf("memsim: thread id %d out of range [0,255]", t))
	}
	s.thread = uint8(t)
}

// Tick implements Memory.
func (s *Sim) Tick(n uint64) { s.insts += n }

// load is the common load path; returns the (possibly clobbered) value.
func (s *Sim) load(pc, addr uint64, precise value.Value, approx bool) value.Value {
	if s.sink != nil {
		s.sink.Access(pc, addr, precise, trace.Load, approx, s.thread, s.insts)
	}
	s.insts++
	if s.approx != nil {
		s.approx.OnLoad() // advance value-delay countdowns on every load
	}
	if approx {
		if !s.lastPCValid || pc != s.lastApproxPC {
			s.approxPC.add(pc)
			s.lastApproxPC, s.lastPCValid = pc, true
		}
		if at := s.at; at != nil {
			at.Load(pc, s.insts)
		}
	}

	// Probe/Touch instead of l1.Load: both inline, so the hit path — the
	// overwhelmingly common case — runs without a single cache-package
	// call frame. Demand counters live here and are merged into the cache
	// stats by Result.
	s.loads++
	if idx := s.l1.Probe(addr); idx >= 0 {
		s.l1.Touch(idx)
		return precise
	}
	s.loadMiss++

	if approx && s.approx != nil {
		d := s.approx.OnMiss(pc, precise)
		if at := s.at; at != nil {
			at.Miss(pc, d.Approximated, d.Fetch)
		}
		if d.Fetch {
			s.fetches++
			s.l1.FillAbsent(addr, false)
		}
		if d.Approximated {
			s.covered++
			if s.cfg.Attach == AttachLVP {
				// An idealized correct prediction equals the precise
				// value; incorrect predictions roll back and re-execute,
				// so the consumed value is always precise.
				return precise
			}
			return d.Value
		}
		return precise
	}

	// Precise miss path: demand fetch, plus prefetches if attached.
	// Annotated loads still attribute here (uncovered by construction)
	// so precise/prefetch scopes carry comparable per-site miss counts.
	if approx {
		if at := s.at; at != nil {
			at.Miss(pc, false, true)
		}
	}
	s.fetches++
	s.l1.FillAbsent(addr, false)
	if s.pref != nil {
		for _, t := range s.pref.OnMiss(pc, s.l1.BlockAddr(addr)) {
			if !s.l1.Contains(t) {
				s.fetches++
				s.l1.FillAbsent(t, true)
			}
		}
	}
	return precise
}

// LoadFloat implements Memory.
func (s *Sim) LoadFloat(pc, addr uint64, precise float64, approx bool) float64 {
	return s.load(pc, addr, value.FromFloat(precise), approx).Float()
}

// LoadInt implements Memory.
func (s *Sim) LoadInt(pc, addr uint64, precise int64, approx bool) int64 {
	return s.load(pc, addr, value.FromInt(precise), approx).Int()
}

// Store implements Memory. Stores are never approximated; misses
// write-allocate.
func (s *Sim) Store(pc, addr uint64) {
	if s.sink != nil {
		s.sink.Access(pc, addr, value.Value{}, trace.Store, false, s.thread, s.insts)
	}
	s.insts++
	s.stores++
	if idx := s.l1.Probe(addr); idx >= 0 {
		s.l1.TouchStore(idx)
		return
	}
	s.storMiss++
	s.fetches++
	s.l1.FillAbsent(addr, false)
	s.l1.MarkDirty(addr)
}

// Result finalizes (drains pending trainings) and returns the metrics.
func (s *Sim) Result() Result {
	if s.approx != nil {
		s.approx.Drain()
	}
	// The hot path bypasses cache.Load/Store (see load), so the demand
	// counters live on the Sim; fold them into the cache's fill/eviction
	// stats to present the usual combined view.
	cs := s.l1.Stats()
	cs.Loads += s.loads
	cs.Stores += s.stores
	cs.LoadMiss += s.loadMiss
	cs.StoreMiss += s.storMiss
	r := Result{
		Instructions: s.insts,
		Loads:        cs.Loads,
		Stores:       cs.Stores,
		LoadMisses:   cs.LoadMiss,
		Covered:      s.covered,
		Fetches:      s.fetches,
		StaticPCs:    s.approxPC.len(),
		Cache:        cs,
	}
	if s.approx != nil {
		r.Approx = s.approx.Stats()
	}
	if s.pref != nil {
		r.Prefetch = s.pref.Stats()
	}
	return r
}
