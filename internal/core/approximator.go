package core

import (
	"lva/internal/obs"
	"lva/internal/obs/attr"
	"lva/internal/value"
)

// Decision is the approximator's response to a cache miss.
type Decision struct {
	// Approximated reports whether a value was generated and handed to the
	// processor (coverage). When false the load behaves precisely: the
	// processor waits for the fetch.
	Approximated bool
	// Value is the approximate value (valid only when Approximated).
	Value value.Value
	// Fetch reports whether the block is fetched from the next level of
	// the hierarchy. With approximation degree > 0 a covered miss may
	// elide the fetch entirely (Fetch == false).
	Fetch bool
	// Correct reports, in LVP mode, whether the idealized predictor had
	// the exact value available (upper bound on prediction correctness).
	Correct bool
}

// Stats counts approximator events.
type Stats struct {
	Misses         uint64 // approximate-load misses presented
	Approximations uint64 // misses covered with a generated value
	Fetches        uint64 // block fetches issued (training loads)
	ElidedFetches  uint64 // fetches skipped via approximation degree
	Trainings      uint64 // training commits (after value delay)
	ConfAccepts    uint64 // trainings within the confidence window
	ConfRejects    uint64 // trainings outside the window
	NoEntry        uint64 // misses with no matching table entry
	LowConfidence  uint64 // misses rejected by the confidence counter
	LVPCorrect     uint64 // LVP mode: exact value present in LHB
}

// Coverage returns the fraction of misses that were approximated.
func (s Stats) Coverage() float64 {
	if s.Misses == 0 {
		return 0
	}
	return float64(s.Approximations) / float64(s.Misses)
}

type entry struct {
	valid  bool
	tag    uint64
	conf   int
	degree int    // remaining reuses before the next training fetch
	lru    uint64 // recency stamp for associative tables
	lhb    []value.Value
}

// pendingTrain models value delay: the actual value arrives at the history
// buffers only once the core's load counter reaches `due`.
type pendingTrain struct {
	set       int         // table set captured at miss time
	tag       uint64      // tag captured at miss time
	pc        uint64      // load PC, for per-site attribution
	actual    value.Value // precise value from memory
	approx    value.Value // value the approximator generated (or would have)
	hadApprox bool        // whether approx is meaningful for confidence
	due       uint64      // loadTick at which the fetched value arrives
}

// Approximator is the load value approximator of Figure 3. It is not safe
// for concurrent use; the simulators instantiate one per core.
type Approximator struct {
	cfg     Config
	idxMask uint64
	idxBits uint
	tagMask uint64
	// table holds every way of every set contiguously, indexed
	// set*ways + way — the same flat layout as internal/cache, so a set
	// probe touches adjacent memory instead of chasing per-set slices.
	table    []entry
	ways     int
	clock    uint64
	ghb      []value.Value // ring of last GHBSize trained values
	ghbHead  int
	ghbCount int
	// pending is a FIFO ring of in-flight trainings ordered by due tick
	// (delays are uniform, so enqueue order IS due order). A ring with a
	// head cursor makes OnLoad's advance a single head comparison instead
	// of a decrement-and-compact walk over every in-flight entry per load.
	pending   []pendingTrain
	pendHead  int
	pendCount int
	loadTick  uint64 // loads issued so far (OnLoad calls)
	stats     Stats
	// om is non-nil only when obs metrics were enabled at construction.
	om *coreMetrics
	// at is non-nil only when a flight recorder was attached for this run;
	// the hooks fire on training commits, never on the load fast path.
	at *attr.Recorder
}

// New builds an approximator; it panics on an invalid Config since
// configurations are fixed experiment parameters.
func New(cfg Config) *Approximator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	idxBits := uint(0)
	for 1<<idxBits < cfg.Sets() {
		idxBits++
	}
	a := &Approximator{
		cfg:     cfg,
		idxMask: uint64(cfg.Sets() - 1),
		idxBits: idxBits,
		tagMask: (uint64(1) << cfg.TagBits) - 1,
		table:   make([]entry, cfg.Sets()*cfg.TableWays),
		ways:    cfg.TableWays,
	}
	if cfg.GHBSize > 0 {
		a.ghb = make([]value.Value, cfg.GHBSize)
	}
	if obs.Enabled() {
		a.om = sharedCoreMetrics()
	}
	return a
}

// Config returns the configuration the approximator was built with.
func (a *Approximator) Config() Config { return a.cfg }

// SetAttribution attaches a flight recorder for this run (nil detaches).
// Call before issuing loads; the simulator wires it when attr.Enabled().
func (a *Approximator) SetAttribution(rec *attr.Recorder) { a.at = rec }

// Stats returns a copy of the event counters.
func (a *Approximator) Stats() Stats { return a.stats }

// hash folds the load PC and the GHB contents into a table set index and
// tag using XOR, the paper's baseline context hash h(PC, GHB).
func (a *Approximator) hash(pc uint64) (set int, tag uint64) {
	h := pc
	// Mix the PC so nearby PCs spread across the table.
	h ^= h >> 17
	for i := 0; i < a.ghbCount; i++ {
		v := a.ghb[(a.ghbHead-1-i+len(a.ghb)*2)%len(a.ghb)]
		x := value.Truncate(v, a.cfg.MantissaLoss).Bits
		// Fold the value so its entropy (which for floats lives in the
		// high exponent/mantissa bits, especially after truncation)
		// reaches the low bits that form the index and tag. Equal values
		// still hash equally, so truncation improves locality (§VII-B).
		x ^= x >> 33
		x ^= x >> 15
		h ^= x
	}
	return int(h & a.idxMask), (h >> a.idxBits) & a.tagMask
}

// setOf returns the ways of one table set as a window into the flat array.
func (a *Approximator) setOf(set int) []entry {
	base := set * a.ways
	return a.table[base : base+a.ways]
}

// lookup finds the tag-matching entry in a set and refreshes its recency.
func (a *Approximator) lookup(set int, tag uint64) *entry {
	w := a.setOf(set)
	for i := range w {
		e := &w[i]
		if e.valid && e.tag == tag {
			a.clock++
			e.lru = a.clock
			return e
		}
	}
	return nil
}

// OnMiss is invoked on an L1 miss of an approximate load. `actual` is the
// precise value in memory; the execution-driven simulator knows it and the
// approximator uses it only for (possibly delayed) training, mirroring the
// hardware where X_actual arrives with the fetched block.
func (a *Approximator) OnMiss(pc uint64, actual value.Value) Decision {
	a.stats.Misses++
	set, tag := a.hash(pc)
	e := a.lookup(set, tag)

	if e == nil {
		// Cold or aliased entry: no approximation possible; fetch, then
		// (after the value delay) allocate/retag and train.
		a.stats.NoEntry++
		a.stats.Fetches++
		a.enqueueTrain(set, tag, pc, actual, value.Value{}, false)
		return Decision{Fetch: true}
	}

	if a.cfg.Mode == ModeLVP {
		return a.lvpMiss(set, tag, pc, e, actual)
	}

	if len(e.lhb) == 0 {
		// Entry exists but has no history yet (e.g. retagged while a
		// training is still pending): behave precisely.
		a.stats.NoEntry++
		a.stats.Fetches++
		a.enqueueTrain(set, tag, pc, actual, value.Value{}, false)
		return Decision{Fetch: true}
	}

	candidate := a.cfg.Compute.apply(e.lhb)

	// Confidence gate: floating-point data always uses the counter;
	// integer data only when IntConfidence is set (§VI-B).
	useConf := actual.Kind == value.Float || a.cfg.IntConfidence
	if useConf && e.conf < 0 {
		a.stats.LowConfidence++
		a.stats.Fetches++
		a.enqueueTrain(set, tag, pc, actual, candidate, true)
		return Decision{Fetch: true}
	}

	a.stats.Approximations++

	// Approximation made: the degree counter (initialized to the maximum
	// degree, decremented per approximation) decides whether the fetch is
	// elided. Only when it reaches zero is the block fetched, the entry
	// trained, and the counter reset (§III-C). While the counter drains the
	// LHB is unchanged, so the recomputed candidate is the same value the
	// paper describes as "reused".
	if a.cfg.Degree > 0 && e.degree > 0 {
		e.degree--
		a.stats.ElidedFetches++
		return Decision{Approximated: true, Value: candidate, Fetch: false}
	}
	e.degree = a.cfg.Degree
	a.stats.Fetches++
	a.enqueueTrain(set, tag, pc, actual, candidate, true)
	return Decision{Approximated: true, Value: candidate, Fetch: true}
}

// lvpMiss implements the idealized LVP baseline: coverage iff the exact
// value sits in the LHB; the block is always fetched and trained.
func (a *Approximator) lvpMiss(set int, tag, pc uint64, e *entry, actual value.Value) Decision {
	correct := false
	for _, v := range e.lhb {
		if v.Equal(actual) {
			correct = true
			break
		}
	}
	a.stats.Fetches++
	a.enqueueTrain(set, tag, pc, actual, actual, false)
	if correct {
		a.stats.LVPCorrect++
		a.stats.Approximations++
		return Decision{Approximated: true, Value: actual, Fetch: true, Correct: true}
	}
	return Decision{Fetch: true}
}

// enqueueTrain schedules a training commit after the configured value delay.
func (a *Approximator) enqueueTrain(set int, tag, pc uint64, actual, approx value.Value, hadApprox bool) {
	t := pendingTrain{set: set, tag: tag, pc: pc, actual: actual, approx: approx, hadApprox: hadApprox}
	if a.cfg.ValueDelay == 0 {
		a.commitTrain(t)
		return
	}
	t.due = a.loadTick + uint64(a.cfg.ValueDelay)
	if a.pendCount == len(a.pending) {
		a.growPending()
	}
	a.pending[(a.pendHead+a.pendCount)%len(a.pending)] = t
	a.pendCount++
}

// growPending (re)sizes the pending ring. Steady state holds at most
// ValueDelay in-flight trainings (one enqueue per load, each live for
// ValueDelay loads), but callers driving OnMiss without OnLoad (tests,
// benchmarks) can exceed that, so the ring doubles like a slice.
func (a *Approximator) growPending() {
	next := make([]pendingTrain, max(2*len(a.pending), a.cfg.ValueDelay+1))
	for i := 0; i < a.pendCount; i++ {
		next[i] = a.pending[(a.pendHead+i)%len(a.pending)]
	}
	a.pending = next
	a.pendHead = 0
}

// OnLoad must be called once per load instruction issued by the core (hit
// or miss, approximate or not). It advances the load tick against which
// value-delay due times are checked: blocks "arrive" only after the
// configured number of further loads. The common case (nothing in flight)
// is an inlinable counter bump plus one compare; the commit walk lives in
// advancePending so this wrapper stays under the inliner budget of the
// simulator's load path.
func (a *Approximator) OnLoad() {
	a.loadTick++
	if a.pendCount == 0 {
		return
	}
	a.advancePending()
}

func (a *Approximator) advancePending() {
	for a.pendCount > 0 {
		t := a.pending[a.pendHead]
		if t.due > a.loadTick {
			return
		}
		a.pendHead = (a.pendHead + 1) % len(a.pending)
		a.pendCount--
		a.commitTrain(t)
	}
}

// Drain commits all pending trainings immediately (end of simulation).
func (a *Approximator) Drain() {
	for ; a.pendCount > 0; a.pendCount-- {
		a.commitTrain(a.pending[a.pendHead])
		a.pendHead = (a.pendHead + 1) % len(a.pending)
	}
}

// commitTrain performs step 4 of Figure 2: X_actual is pushed into the GHB
// and the entry's LHB, and the confidence counter moves by ±1 depending on
// whether X_approx fell within the relaxed confidence window.
func (a *Approximator) commitTrain(t pendingTrain) {
	a.stats.Trainings++
	if m := a.om; m != nil {
		m.trainings.Inc()
	}
	stored := value.Truncate(t.actual, a.cfg.MantissaLoss)

	// GHB push (all trained values, global across entries).
	if len(a.ghb) > 0 {
		a.ghb[a.ghbHead] = stored
		a.ghbHead = (a.ghbHead + 1) % len(a.ghb)
		if a.ghbCount < len(a.ghb) {
			a.ghbCount++
		}
	}

	e := a.lookup(t.set, t.tag)
	if e == nil {
		// (Re)allocate: pick an invalid way or evict the LRU one.
		w := a.setOf(t.set)
		victim := 0
		for i := range w {
			if !w[i].valid {
				victim = i
				break
			}
			if w[i].lru < w[victim].lru {
				victim = i
			}
		}
		a.clock++
		// Reuse the victim's LHB backing array: retagging is frequent under
		// hash aliasing and reallocation here dominated the miss path.
		lhb := w[victim].lhb[:0]
		w[victim] = entry{valid: true, tag: t.tag, conf: 0, degree: a.cfg.Degree, lru: a.clock, lhb: lhb}
		e = &w[victim]
	}
	// Maintain the LHB as a fixed window in place: append until full, then
	// slide left, never re-slicing (which churned the backing array).
	if e.lhb == nil {
		e.lhb = make([]value.Value, 0, a.cfg.LHBSize)
	}
	if len(e.lhb) < a.cfg.LHBSize {
		e.lhb = append(e.lhb, stored)
	} else {
		copy(e.lhb, e.lhb[1:])
		e.lhb[len(e.lhb)-1] = stored
	}

	if !t.hadApprox {
		if at := a.at; at != nil {
			at.Train(t.pc, false, false, false, false, 0)
		}
		return
	}
	before := e.conf
	// The relative error feeds both observability seams; compute it once
	// and only when at least one of them is wired.
	relErr := 0.0
	if a.om != nil || a.at != nil {
		relErr = value.RelDiff(t.approx.Float(), t.actual.Float())
	}
	if value.WithinWindow(t.approx, t.actual, a.cfg.Window) {
		a.stats.ConfAccepts++
		if e.conf < a.cfg.ConfMax() {
			e.conf++
		}
		gained := before < 0 && e.conf >= 0
		if m := a.om; m != nil {
			m.confAccepts.Inc()
			if gained {
				m.confGained.Inc()
			}
			m.relErr.Observe(relErr)
		}
		if at := a.at; at != nil {
			at.Train(t.pc, true, true, gained, false, relErr)
		}
		return
	}
	a.stats.ConfRejects++
	step := 1
	// §III-B future work: penalize approximations proportionally to how
	// far off they were. Beyond twice the window costs an extra step.
	if a.cfg.ProportionalConfidence && a.cfg.Window > 0 &&
		!value.WithinWindow(t.approx, t.actual, 2*a.cfg.Window) {
		step = 2
	}
	e.conf -= step
	if e.conf < a.cfg.ConfMin() {
		e.conf = a.cfg.ConfMin()
	}
	lost := before >= 0 && e.conf < 0
	if m := a.om; m != nil {
		m.confRejects.Inc()
		if lost {
			m.confLost.Inc()
		}
		m.relErr.Observe(relErr)
	}
	if at := a.at; at != nil {
		at.Train(t.pc, true, false, false, lost, relErr)
	}
}

// Reset clears all table, history and pending-training state, keeping the
// configuration. Statistics are also reset.
func (a *Approximator) Reset() {
	for i := range a.table {
		a.table[i] = entry{}
	}
	for i := range a.ghb {
		a.ghb[i] = value.Value{}
	}
	a.ghbHead, a.ghbCount = 0, 0
	a.pendHead, a.pendCount = 0, 0
	a.loadTick = 0
	a.stats = Stats{}
}

// PendingTrainings reports how many fetched blocks are still in flight
// (useful for tests of the value-delay machinery).
func (a *Approximator) PendingTrainings() int { return a.pendCount }

// EntryConfidence exposes the confidence counter for the entry a PC hashes
// to with the current GHB state, for tests and introspection. The second
// result reports whether a valid, tag-matching entry exists.
func (a *Approximator) EntryConfidence(pc uint64) (int, bool) {
	set, tag := a.hash(pc)
	w := a.setOf(set)
	for i := range w {
		if w[i].valid && w[i].tag == tag {
			return w[i].conf, true
		}
	}
	return 0, false
}

// OccupiedEntries counts valid table entries (table-utilization metric for
// the hardware-budget discussion of §VII-A).
func (a *Approximator) OccupiedEntries() int {
	n := 0
	for i := range a.table {
		if a.table[i].valid {
			n++
		}
	}
	return n
}
