package attr

import (
	"encoding/json"
	"sort"
	"strconv"
	"sync"
)

// SiteStats is one attribution site as exported in snapshots: the raw Site
// counters plus derived rates, with the PC rendered in hex so snapshots are
// greppable against disassembly-style listings.
type SiteStats struct {
	PC         string  `json:"pc"`
	Loads      uint64  `json:"loads"`
	Misses     uint64  `json:"misses"`
	Covered    uint64  `json:"covered"`
	Fetches    uint64  `json:"fetches"`
	Trainings  uint64  `json:"trainings"`
	Accepts    uint64  `json:"conf_accepts"`
	Rejects    uint64  `json:"conf_rejects"`
	ConfGained uint64  `json:"conf_gained"`
	ConfLost   uint64  `json:"conf_lost"`
	WildErrs   uint64  `json:"wild_errors,omitempty"`
	MeanRelErr float64 `json:"mean_rel_error"`
	MaxRelErr  float64 `json:"max_rel_error"`
}

// EpochStats is one time-series window with derived rates.
type EpochStats struct {
	Index      int     `json:"index"`
	Loads      uint64  `json:"loads"`
	Insts      uint64  `json:"insts"`
	MPKI       float64 `json:"mpki"`
	Coverage   float64 `json:"coverage"`
	MeanRelErr float64 `json:"mean_rel_error"`
	Accepts    uint64  `json:"conf_accepts"`
	Rejects    uint64  `json:"conf_rejects"`
	ConfGained uint64  `json:"conf_gained"`
	ConfLost   uint64  `json:"conf_lost"`
	WildErrs   uint64  `json:"wild_errors,omitempty"`
}

// ScopeStats is the published attribution of one run.
type ScopeStats struct {
	Scope         string       `json:"scope"`
	EpochWindow   int          `json:"epoch_window"`
	TotalEpochs   int          `json:"total_epochs"`
	DroppedEpochs int          `json:"dropped_epochs"`
	Sites         []SiteStats  `json:"sites"`
	Epochs        []EpochStats `json:"epochs,omitempty"`
}

// Snapshot is a frozen, scope-sorted view of every published run.
type Snapshot struct {
	Scopes []ScopeStats `json:"scopes"`
}

// hexPC renders a PC the way snapshots store it.
func hexPC(pc uint64) string { return "0x" + strconv.FormatUint(pc, 16) }

// epochStats derives the exported view of one sealed epoch.
func epochStats(e Epoch) EpochStats {
	s := EpochStats{
		Index: e.Index, Loads: e.Loads, Insts: e.Insts,
		Accepts: e.Accepts, Rejects: e.Rejects,
		ConfGained: e.ConfGained, ConfLost: e.ConfLost,
		WildErrs: e.WildErrs,
	}
	if e.Insts > 0 {
		s.MPKI = float64(e.Misses) * 1000 / float64(e.Insts)
	}
	if e.Misses > 0 {
		s.Coverage = float64(e.Covered) / float64(e.Misses)
	}
	if judged := e.Accepts + e.Rejects - e.WildErrs; judged > 0 {
		s.MeanRelErr = e.ErrSum / float64(judged)
	}
	return s
}

// Finalize seals any partial epoch and freezes the recorder into its
// exported form. Sites are sorted by PC and epochs by index, so the result
// is deterministic for a deterministic run regardless of scheduling.
func (r *Recorder) Finalize() ScopeStats {
	if r.epoch.Loads > 0 {
		r.sealEpoch(r.lastInsts)
	}
	out := ScopeStats{
		Scope:         r.scope,
		EpochWindow:   int(r.window),
		TotalEpochs:   r.totalEpochs,
		DroppedEpochs: r.totalEpochs - len(r.ring),
	}
	sites := make([]Site, 0, r.n)
	if r.zeroUsed {
		sites = append(sites, r.zero)
	}
	for i := range r.tab {
		if r.tab[i].PC != 0 {
			sites = append(sites, r.tab[i])
		}
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].PC < sites[j].PC })
	out.Sites = make([]SiteStats, len(sites))
	for i, s := range sites {
		ss := SiteStats{
			PC: hexPC(s.PC), Loads: s.Loads, Misses: s.Misses,
			Covered: s.Covered, Fetches: s.Fetches, Trainings: s.Trainings,
			Accepts: s.Accepts, Rejects: s.Rejects,
			ConfGained: s.ConfGained, ConfLost: s.ConfLost,
			WildErrs: s.WildErrs, MaxRelErr: s.ErrMax,
		}
		if judged := s.Accepts + s.Rejects - s.WildErrs; judged > 0 {
			ss.MeanRelErr = s.ErrSum / float64(judged)
		}
		out.Sites[i] = ss
	}
	for i := range r.ring {
		e := r.ring[(r.ringStart+i)%len(r.ring)]
		out.Epochs = append(out.Epochs, epochStats(e))
	}
	return out
}

// MeanRelErr is the load-weighted mean relative training error across the
// scope's judged trainings.
func (s ScopeStats) MeanRelErr() float64 {
	var sum float64
	var n uint64
	for _, st := range s.Sites {
		judged := st.Accepts + st.Rejects - st.WildErrs
		sum += st.MeanRelErr * float64(judged)
		n += judged
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// DriftRatio is the simple drift check over the retained epochs: the mean
// relative error of the second half of the time-series divided by the first
// half's. A ratio well above 1 means the approximator got worse as the run
// progressed (e.g. value locality decayed); below 1 it warmed up. The bool
// is false when fewer than two epochs on either side carry judged
// trainings, in which case no drift conclusion is possible.
func (s ScopeStats) DriftRatio() (float64, bool) {
	half := len(s.Epochs) / 2
	if half < 1 {
		return 0, false
	}
	mean := func(es []EpochStats) (float64, bool) {
		var sum float64
		var n uint64
		for _, e := range es {
			judged := e.Accepts + e.Rejects - e.WildErrs
			sum += e.MeanRelErr * float64(judged)
			n += judged
		}
		if n == 0 {
			return 0, false
		}
		return sum / float64(n), true
	}
	first, ok1 := mean(s.Epochs[:half])
	second, ok2 := mean(s.Epochs[half:])
	if !ok1 || !ok2 || first == 0 {
		return 0, false
	}
	return second / first, true
}

// registry is the process-wide store of published run attributions.
type registry struct {
	mu     sync.Mutex
	scopes map[string]ScopeStats
}

// reg lazily builds the registry exactly once (the sync.OnceValue accessor
// keeps every mutation behind a local, per the obshooks global-mutation
// rule).
var reg = sync.OnceValue(func() *registry {
	return &registry{scopes: make(map[string]ScopeStats)}
})

// Publish finalizes rec and stores it under its scope, replacing any prior
// publication of the same scope. Runs are deterministic functions of their
// scope fingerprint, so republication (e.g. with the run cache disabled) is
// idempotent.
func Publish(rec *Recorder) {
	s := rec.Finalize()
	g := reg()
	g.mu.Lock()
	g.scopes[s.Scope] = s
	g.mu.Unlock()
}

// Reset drops every published scope (for tests).
func Reset() {
	g := reg()
	g.mu.Lock()
	g.scopes = make(map[string]ScopeStats)
	g.mu.Unlock()
}

// TakeSnapshot returns the published scopes sorted by name — byte-stable
// across runs and Parallelism levels for a deterministic experiment set.
func TakeSnapshot() Snapshot {
	g := reg()
	g.mu.Lock()
	out := Snapshot{Scopes: make([]ScopeStats, 0, len(g.scopes))}
	for _, s := range g.scopes {
		out.Scopes = append(out.Scopes, s)
	}
	g.mu.Unlock()
	sort.Slice(out.Scopes, func(i, j int) bool { return out.Scopes[i].Scope < out.Scopes[j].Scope })
	return out
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
