package fullsys

import (
	"testing"

	"lva/internal/trace"
	"lva/internal/value"
)

// laneTrace produces an approximate-load stream with enough distinct
// blocks that training fetches keep flowing.
func laneTrace(n int) []trace.Access {
	var tr []trace.Access
	for i := 0; i < n; i++ {
		// Thread assignment is decorrelated from the block home so most
		// fetches actually cross the mesh.
		tr = append(tr, trace.Access{
			PC: 0x400, Addr: uint64(0x10000 + i*64), Value: value.FromInt(10),
			Gap: 8, Thread: uint8((i / 8) % 4), Op: trace.Load, Approx: true,
		})
	}
	return tr
}

func TestTrainingLaneMovesTrafficToLowPower(t *testing.T) {
	base := DefaultConfig()
	base.Approx = approxCfg(0)

	laned := base
	laned.TrainingLane = DefaultTrainingLane()

	rBase := runStream(t, base, laneTrace(400))
	rLane := runStream(t, laned, laneTrace(400))

	if rLane.LowPowerFlitHops == 0 {
		t.Fatal("training fetches must ride the low-power lane")
	}
	if rBase.LowPowerFlitHops != 0 {
		t.Fatal("without a lane no low-power traffic exists")
	}
	// Total flit work is conserved (same fetches, different lane).
	baseTotal := rBase.FlitHops
	laneTotal := rLane.FlitHops + rLane.LowPowerFlitHops
	if laneTotal < baseTotal*9/10 || laneTotal > baseTotal*11/10 {
		t.Fatalf("flit work must be comparable: %d vs %d", laneTotal, baseTotal)
	}
	// Energy must not increase: low-power flits are cheaper.
	if rLane.Energy.TotalPJ() > rBase.Energy.TotalPJ() {
		t.Fatalf("lane must not cost energy: %.3g vs %.3g",
			rLane.Energy.TotalPJ(), rBase.Energy.TotalPJ())
	}
}

func TestTrainingLaneDoesNotStallCores(t *testing.T) {
	// The default lane slows training fetches, but those are off the
	// critical path: the makespan must be essentially unchanged (LVA's
	// value-delay resilience, §VI-C).
	base := DefaultConfig()
	base.Approx = approxCfg(0)
	laned := base
	laned.TrainingLane = DefaultTrainingLane()

	rBase := runStream(t, base, laneTrace(400))
	rLane := runStream(t, laned, laneTrace(400))
	// This trace is deliberately MSHR-bound (a miss every few cycles with
	// only 8 MSHRs), so slower training fetches shave some throughput via
	// MSHR turnaround; the slowdown must stay mild. Real workloads, with
	// compute between misses, show none (see the ext-lane experiment).
	if rLane.Cycles > rBase.Cycles*5/4 {
		t.Fatalf("the default slow lane must not stall covered execution: %d vs %d cycles",
			rLane.Cycles, rBase.Cycles)
	}

	// An extreme lane does slow things — but only through MSHR occupancy
	// (in-flight training fetches holding miss registers), never by more
	// than the occupancy bound.
	extreme := base
	extreme.TrainingLane = &TrainingLaneConfig{RouterCycles: 30, ExtraLatency: 500}
	rExtreme := runStream(t, extreme, laneTrace(400))
	if rExtreme.Cycles > rBase.Cycles*2 {
		t.Fatalf("even an extreme lane is bounded by MSHR turnaround: %d vs %d cycles",
			rExtreme.Cycles, rBase.Cycles)
	}
}

func TestDemandFetchesStayOnFastLane(t *testing.T) {
	// Precise (non-approximate) loads never use the slow lane.
	cfg := DefaultConfig()
	cfg.TrainingLane = DefaultTrainingLane()
	addrs := make([]uint64, 100)
	for i := range addrs {
		addrs[i] = uint64(0x20000 + i*64)
	}
	r := runStream(t, cfg, mkTrace(addrs, 4, false))
	if r.LowPowerFlitHops != 0 {
		t.Fatalf("demand fetches must not use the training lane: %d", r.LowPowerFlitHops)
	}
}
