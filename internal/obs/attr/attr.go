// Package attr is the approximation flight recorder: per-PC (per-site)
// error attribution and windowed epoch time-series for the phase-1
// simulator. Where internal/obs counts *how many* trainings and confidence
// rejections happen process-wide, attr records *which load sites* cause the
// error and *when* during a run the approximator drifts.
//
// A Recorder is the only per-access observer of the simulators: it is
// attached to a simulator only when SetEnabled(true) ran before the run was
// set up, the hot structs hold a nil-able pointer, and the per-access hooks
// are a single nil check when attribution is off. The plain (non-annotated)
// load-hit path is never touched — only annotated loads and their
// miss/training machinery report here, and a Recorder belongs to exactly
// one single-threaded simulation, so the hot methods take no locks and the
// float accumulators are deterministic.
//
// This package sits on the simulator hot path, so the lvalint obshooks and
// hotpath analyzers apply: no time.Now, no fmt, no package-level mutation,
// no interface-typed parameters in the per-access methods.
package attr

import (
	"math"
	"strconv"
	"sync/atomic"
)

// enabled gates attribution: it is consulted when a run is wired up, not
// per access.
var enabled atomic.Bool

// SetEnabled turns attribution on or off for subsequently wired runs.
// Off by default so the simulator hot paths carry zero cost.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether attribution is enabled.
func Enabled() bool { return enabled.Load() }

// DefaultEpochWindow is the epoch length in annotated loads the
// experiment engine records with: long enough that a full benchmark run
// yields tens of epochs, short enough to localize drift.
const DefaultEpochWindow = 50000

// epochRingCap bounds the per-run epoch ring; when a run exceeds it the
// oldest epochs are dropped (the snapshot reports how many).
const epochRingCap = 512

// Site accumulates the attribution counters of one approximate-load PC.
type Site struct {
	PC         uint64
	Loads      uint64 // annotated loads issued from this PC
	Misses     uint64 // L1 misses of those loads
	Covered    uint64 // misses satisfied with an approximation
	Fetches    uint64 // block fetches those misses triggered
	Trainings  uint64 // training commits attributed to this PC
	Accepts    uint64 // trainings inside the confidence window
	Rejects    uint64 // trainings outside the window
	ConfGained uint64 // confidence counter crossings into conf >= 0
	ConfLost   uint64 // crossings out of the confident range
	WildErrs   uint64 // trainings whose relative error was undefined (actual 0, NaN)
	ErrSum     float64
	ErrMax     float64
}

// Epoch is one window of the time-series, raw counters only; derived rates
// (MPKI, coverage, mean error) are computed at snapshot time.
type Epoch struct {
	Index      int    // 0-based epoch number within the run
	Loads      uint64 // annotated loads (== the window, except a final partial epoch)
	Insts      uint64 // instructions elapsed during the epoch
	Misses     uint64
	Covered    uint64
	Trainings  uint64
	Accepts    uint64
	Rejects    uint64
	ConfGained uint64
	ConfLost   uint64
	WildErrs   uint64
	ErrSum     float64
}

// attrTableInitial sizes the open-addressed site table; Figure 12 shows at
// most ~300 static approximate PCs, so growth is rare.
const attrTableInitial = 256

// Recorder collects the attribution of one simulation run. It belongs to
// exactly one simulator and is not safe for concurrent use; publish it to
// the process-wide registry (Publish) once the run has drained.
type Recorder struct {
	scope string
	// tab is an open-addressed hash table keyed by PC with zero as the
	// empty-slot sentinel; PC 0 is tracked separately (same layout as
	// memsim's pcSet, with a payload).
	tab      []Site
	n        int
	zero     Site
	zeroUsed bool

	window          uint64 // epoch length in annotated loads
	epoch           Epoch  // accumulator for the current epoch
	epochStartInsts uint64
	lastInsts       uint64
	ring            []Epoch // last epochRingCap sealed epochs
	ringStart       int     // index of the oldest sealed epoch in ring
	totalEpochs     int
}

// NewRecorder builds a recorder for one run. scope names the run in the
// published snapshot (the experiment harness uses bench/attach/confighash)
// and window is the epoch length in annotated loads (the harness passes
// DefaultEpochWindow). It panics if window is not positive, since the
// window is a fixed experiment parameter.
func NewRecorder(scope string, window int) *Recorder {
	if window <= 0 {
		panic("attr: epoch window must be positive, got " + strconv.Itoa(window))
	}
	return &Recorder{scope: scope, window: uint64(window), ring: make([]Epoch, 0, epochRingCap)}
}

// Scope returns the run label the recorder was created with.
func (r *Recorder) Scope() string { return r.scope }

func (r *Recorder) slot(pc uint64) uint64 {
	// Fibonacci hashing: synthetic PCs differ only in a few low bits.
	return (pc * 0x9E3779B97F4A7C15) >> 32 & uint64(len(r.tab)-1)
}

// site returns the accumulator for pc, inserting it on first use. The
// returned pointer is valid until the next insertion-triggered growth, so
// callers use it immediately and never retain it.
func (r *Recorder) site(pc uint64) *Site {
	if pc == 0 {
		if !r.zeroUsed {
			r.zeroUsed = true
			r.zero.PC = 0
			r.n++
		}
		return &r.zero
	}
	if r.tab == nil {
		r.tab = make([]Site, attrTableInitial)
	}
	mask := uint64(len(r.tab) - 1)
	for i := r.slot(pc); ; i = (i + 1) & mask {
		s := &r.tab[i]
		if s.PC == pc {
			return s
		}
		if s.PC == 0 {
			s.PC = pc
			r.n++
			if (r.n-1)*4 >= len(r.tab)*3 {
				r.growTable()
				return r.site(pc)
			}
			return s
		}
	}
}

func (r *Recorder) growTable() {
	old := r.tab
	r.tab = make([]Site, 2*len(old))
	mask := uint64(len(r.tab) - 1)
	for oi := range old {
		if old[oi].PC == 0 {
			continue
		}
		i := r.slot(old[oi].PC)
		for r.tab[i].PC != 0 {
			i = (i + 1) & mask
		}
		r.tab[i] = old[oi]
	}
}

// Load records one annotated load from pc; insts is the simulator's running
// instruction count, used to delimit epochs. Hot path: one table probe plus
// a window compare.
func (r *Recorder) Load(pc, insts uint64) {
	r.site(pc).Loads++
	r.lastInsts = insts
	r.epoch.Loads++
	if r.epoch.Loads >= r.window {
		r.sealEpoch(insts)
	}
}

// Miss records the outcome of one annotated-load L1 miss: whether it was
// covered by an approximation and whether it fetched the block.
func (r *Recorder) Miss(pc uint64, covered, fetched bool) {
	s := r.site(pc)
	s.Misses++
	if covered {
		s.Covered++
	}
	if fetched {
		s.Fetches++
	}
	r.epoch.Misses++
	if covered {
		r.epoch.Covered++
	}
}

// Train records one training commit for pc. hadApprox marks commits where
// an approximation existed to judge: only those carry accepted/gained/lost
// and relErr (the relative error of the approximation vs the actual value).
// A non-finite relErr — RelDiff against an actual value of zero is +Inf —
// counts as a wild error and stays out of the sums so means and snapshots
// remain finite.
func (r *Recorder) Train(pc uint64, hadApprox, accepted, gained, lost bool, relErr float64) {
	s := r.site(pc)
	s.Trainings++
	r.epoch.Trainings++
	if !hadApprox {
		return
	}
	wild := math.IsInf(relErr, 0) || math.IsNaN(relErr)
	if accepted {
		s.Accepts++
	} else {
		s.Rejects++
	}
	if gained {
		s.ConfGained++
	}
	if lost {
		s.ConfLost++
	}
	if wild {
		s.WildErrs++
	} else {
		s.ErrSum += relErr
		if relErr > s.ErrMax {
			s.ErrMax = relErr
		}
	}
	e := &r.epoch
	if accepted {
		e.Accepts++
	} else {
		e.Rejects++
	}
	if gained {
		e.ConfGained++
	}
	if lost {
		e.ConfLost++
	}
	if wild {
		e.WildErrs++
	} else {
		e.ErrSum += relErr
	}
}

// sealEpoch closes the current epoch at instruction count insts and pushes
// it onto the ring, dropping the oldest epoch when full.
func (r *Recorder) sealEpoch(insts uint64) {
	e := r.epoch
	e.Index = r.totalEpochs
	e.Insts = insts - r.epochStartInsts
	r.totalEpochs++
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, e)
	} else {
		r.ring[r.ringStart] = e
		r.ringStart = (r.ringStart + 1) % len(r.ring)
	}
	r.epochStartInsts = insts
	r.epoch = Epoch{}
}

// Sites returns the number of distinct PCs recorded.
func (r *Recorder) Sites() int { return r.n }

// TotalEpochs returns how many epochs have been sealed so far.
func (r *Recorder) TotalEpochs() int { return r.totalEpochs }
