// Package core implements the paper's primary contribution: the load value
// approximator (Figure 3). The approximator is consulted on L1 data-cache
// misses to loads annotated as approximate. It combines a global history
// buffer (GHB) of recently loaded values with a direct-mapped approximator
// table whose entries carry a tag, a saturating signed confidence counter
// (§III-B), a degree counter (§III-C) and a local history buffer (LHB).
//
// The same structure also implements the paper's idealized load value
// prediction (LVP) baseline: a prediction is deemed correct iff any LHB
// entry exactly matches the value in memory, and the block is always
// fetched (§VI).
package core

import (
	"fmt"
	"math"

	"lva/internal/value"
)

// Mode selects between load value approximation and the idealized load
// value prediction baseline.
type Mode uint8

const (
	// ModeLVA is load value approximation: no rollbacks, relaxed
	// confidence, optional fetch elision via the approximation degree.
	ModeLVA Mode = iota
	// ModeLVP is the paper's idealized load value predictor: coverage is
	// granted iff any LHB value matches the actual value exactly, and the
	// block is always fetched to validate.
	ModeLVP
)

func (m Mode) String() string {
	if m == ModeLVP {
		return "LVP"
	}
	return "LVA"
}

// ComputeKind selects the computation function f applied to the LHB.
type ComputeKind uint8

const (
	// ComputeAverage averages the LHB (the paper's baseline choice).
	ComputeAverage ComputeKind = iota
	// ComputeLast returns the most recent LHB value.
	ComputeLast
	// ComputeStride extrapolates using the last two LHB values.
	ComputeStride
)

func (k ComputeKind) String() string {
	switch k {
	case ComputeLast:
		return "last"
	case ComputeStride:
		return "stride"
	default:
		return "average"
	}
}

func (k ComputeKind) apply(vs []value.Value) value.Value {
	switch k {
	case ComputeLast:
		return value.LastValue(vs)
	case ComputeStride:
		return value.Stride(vs)
	default:
		return value.Average(vs)
	}
}

// Config mirrors the paper's Table II baseline approximator configuration.
// The zero value is not useful; start from DefaultConfig.
type Config struct {
	// Mode selects LVA or the idealized LVP baseline.
	Mode Mode
	// TableEntries is the total number of approximator-table entries
	// (must be a power of two). Baseline: 512.
	TableEntries int
	// TableWays is the table associativity. The paper's baseline table is
	// direct-mapped (1); higher associativity reduces the destructive
	// aliasing the paper discusses for floating-point contexts (§VI-A) at
	// extra hardware cost. Entries are grouped into TableEntries/TableWays
	// LRU sets.
	TableWays int
	// TagBits is the width of the stored tag. Baseline: 21.
	TagBits int
	// ConfidenceBits sizes the saturating signed counter; n bits give the
	// range [-2^(n-1), 2^(n-1)-1]. Baseline: 4 -> [-8, 7]. An approximation
	// is made when the counter is >= 0.
	ConfidenceBits int
	// ProportionalConfidence enables the paper's §III-B future-work
	// optimization: the confidence counter moves by more than one when the
	// approximation is far outside the window (impossible in traditional
	// value prediction, where correctness is binary). Within the window:
	// +1; outside but within 2x: -1; beyond 2x the window: -2.
	ProportionalConfidence bool
	// Window is the relaxed confidence window as a fraction: 0.10 means
	// X_approx must fall within ±10% of X_actual to increment confidence.
	// 0 requires exact equality (traditional value prediction); a negative
	// value is the paper's "infinite" window (never decrement).
	Window float64
	// IntConfidence enables confidence estimation for integer data. The
	// baseline disables it (§VI-B): integer loads are approximated
	// whenever the entry has history.
	IntConfidence bool
	// GHBSize is the number of recent load values hashed into the table
	// index alongside the PC. Baseline: 0.
	GHBSize int
	// LHBSize is the local history buffer depth. Baseline: 4.
	LHBSize int
	// Compute is the computation function f over the LHB. Baseline: average.
	Compute ComputeKind
	// Degree is the approximation degree: how many times a generated value
	// is reused (and the fetch elided) before the entry is trained again.
	// Baseline: 0 (every miss fetches and trains).
	Degree int
	// ValueDelay is the number of subsequent load instructions that issue
	// before a fetched block's actual value reaches the history buffers
	// (§VI-C). The design-space exploration assumes 4.
	ValueDelay int
	// MantissaLoss drops this many (single-precision-equivalent) mantissa
	// bits from floating-point values before they are hashed into the GHB
	// context and stored in history (§VII-B, Figure 13).
	MantissaLoss int
}

// MaxHistoryDepth caps GHBSize and LHBSize. It is 8x the deepest history
// any figure, test or example uses, and keeps a mistyped depth from
// allocating history buffers that exhaust memory.
const MaxHistoryDepth = 64

// DefaultConfig returns the paper's Table II baseline configuration.
func DefaultConfig() Config {
	return Config{
		Mode:           ModeLVA,
		TableEntries:   512,
		TableWays:      1,
		TagBits:        21,
		ConfidenceBits: 4,
		Window:         0.10,
		IntConfidence:  false,
		GHBSize:        0,
		LHBSize:        4,
		Compute:        ComputeAverage,
		Degree:         0,
		ValueDelay:     4,
		MantissaLoss:   0,
	}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.TableEntries <= 0 || c.TableEntries&(c.TableEntries-1) != 0:
		return fmt.Errorf("core: table entries must be a positive power of two, got %d", c.TableEntries)
	case c.TableWays <= 0 || c.TableEntries%c.TableWays != 0 || sets(c.TableEntries, c.TableWays)&(sets(c.TableEntries, c.TableWays)-1) != 0:
		return fmt.Errorf("core: table ways must divide entries into a power-of-two set count, got %d ways for %d entries", c.TableWays, c.TableEntries)
	case c.TagBits <= 0 || c.TagBits > 43:
		return fmt.Errorf("core: tag bits must be in [1,43], got %d", c.TagBits)
	case c.ConfidenceBits <= 0 || c.ConfidenceBits > 8:
		return fmt.Errorf("core: confidence bits must be in [1,8], got %d", c.ConfidenceBits)
	case math.IsNaN(c.Window):
		return fmt.Errorf("core: confidence window must be a number, got NaN")
	case c.GHBSize < 0:
		return fmt.Errorf("core: GHB size must be >= 0, got %d", c.GHBSize)
	case c.GHBSize > MaxHistoryDepth:
		return fmt.Errorf("core: GHB size must be <= %d, got %d", MaxHistoryDepth, c.GHBSize)
	case c.LHBSize <= 0:
		return fmt.Errorf("core: LHB size must be positive, got %d", c.LHBSize)
	case c.LHBSize > MaxHistoryDepth:
		return fmt.Errorf("core: LHB size must be <= %d, got %d", MaxHistoryDepth, c.LHBSize)
	case c.Degree < 0:
		return fmt.Errorf("core: approximation degree must be >= 0, got %d", c.Degree)
	case c.ValueDelay < 0:
		return fmt.Errorf("core: value delay must be >= 0, got %d", c.ValueDelay)
	case c.MantissaLoss < 0 || c.MantissaLoss > 23:
		return fmt.Errorf("core: mantissa loss must be in [0,23], got %d", c.MantissaLoss)
	}
	return nil
}

func sets(entries, ways int) int { return entries / ways }

// Sets returns the number of table sets (TableEntries / TableWays).
func (c Config) Sets() int { return c.TableEntries / c.TableWays }

// ConfMin returns the saturating counter's minimum value.
func (c Config) ConfMin() int { return -(1 << (c.ConfidenceBits - 1)) }

// ConfMax returns the saturating counter's maximum value.
func (c Config) ConfMax() int { return 1<<(c.ConfidenceBits-1) - 1 }

// StorageBits estimates the hardware budget of the approximator table in
// bits, assuming valueBits-wide LHB entries (the paper quotes ~18 KB at 64
// bits and ~10 KB at 32 bits for the 512-entry baseline, §VII-A).
func (c Config) StorageBits(valueBits int) int {
	degreeBits := 0
	for 1<<degreeBits <= c.Degree {
		degreeBits++
	}
	perEntry := c.TagBits + c.ConfidenceBits + degreeBits + c.LHBSize*valueBits + 1 // +1 valid
	return c.TableEntries*perEntry + c.GHBSize*valueBits
}
