package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"

	"lva/internal/core"
	"lva/internal/fullsys"
	"lva/internal/memsim"
	"lva/internal/prefetch"
	"lva/internal/workloads"
)

// designPoint is the identity of one evaluation of the paper's grid: a
// kernel, its input seed, the phase-1 simulator configuration and, for
// phase-2 points, the full-system configuration the precise recording is
// streamed through. Every result the engine produces is a deterministic
// function of the point, so key() is the only identity it derives: run
// cache and memo keys, recording names and footer keys, provenance
// fingerprints, and attribution scopes.
type designPoint struct {
	w    workloads.Workload
	seed uint64
	mem  memsim.Config
	fs   *fullsys.Config // nil for phase-1 points
}

// precisePoint is w's unapproximated run: the baseline every figure
// normalizes against and the stream every replay consumes.
func precisePoint(w workloads.Workload, seed uint64) designPoint {
	return attachPoint(w, seed, memsim.AttachNone)
}

// lvaPoint is w under a load value approximator built from cfg.
func lvaPoint(w workloads.Workload, cfg core.Config, seed uint64) designPoint {
	dp := attachPoint(w, seed, memsim.AttachLVA)
	dp.mem.Approx = cfg
	return dp
}

// lvpPoint is w under the idealized load value predictor built from cfg.
func lvpPoint(w workloads.Workload, cfg core.Config, seed uint64) designPoint {
	dp := attachPoint(w, seed, memsim.AttachLVP)
	dp.mem.Approx = cfg
	return dp
}

// prefetchPoint is w under the GHB prefetcher at degree.
func prefetchPoint(w workloads.Workload, degree int, seed uint64) designPoint {
	dp := attachPoint(w, seed, memsim.AttachPrefetch)
	dp.mem.Prefetch = prefetch.DefaultConfig()
	dp.mem.Prefetch.Degree = degree
	return dp
}

// fullsysPoint is the phase-2 run of w's precise recording under cfg.
func fullsysPoint(w workloads.Workload, cfg fullsys.Config, seed uint64) designPoint {
	dp := precisePoint(w, seed)
	dp.fs = &cfg
	return dp
}

// attachPoint is w under the default phase-1 configuration with attach.
func attachPoint(w workloads.Workload, seed uint64, attach memsim.Attachment) designPoint {
	mem := memsim.DefaultConfig()
	mem.Attach = attach
	return designPoint{w: w, seed: seed, mem: mem}
}

// key renders the point canonically. %#v spells out the workload's
// concrete type with every calibration parameter, and every configuration
// field (all flat value types), so two points describe the same simulation
// iff their keys are equal. The workload is rendered from a copy of the
// struct it points to (%#v boxes each field of a pointed-to struct, and
// keys are rendered on every memo lookup). The full-system configuration's
// Approx and TrainingLane are rendered by value, because %#v prints a
// nested pointer as its address; a nil one renders as a typed nil.
func (dp designPoint) key() string {
	w := reflect.Indirect(reflect.ValueOf(dp.w)).Interface()
	if dp.fs == nil {
		return fmt.Sprintf("%#v|%#v|seed=%d", w, dp.mem, dp.seed)
	}
	fs := *dp.fs
	fs.Approx, fs.TrainingLane = nil, nil
	var approx, lane any = dp.fs.Approx, dp.fs.TrainingLane
	if dp.fs.Approx != nil {
		approx = *dp.fs.Approx
	}
	if dp.fs.TrainingLane != nil {
		lane = *dp.fs.TrainingLane
	}
	return fmt.Sprintf("%#v|%#v|seed=%d|%#v|%#v|%#v", w, dp.mem, dp.seed, fs, approx, lane)
}

// hash is the point's short fingerprint: its provenance fingerprint, its
// recording's file name, and the suffix of its attribution scope.
func (dp designPoint) hash() string {
	sum := sha256.Sum256([]byte(dp.key()))
	return hex.EncodeToString(sum[:8])
}

// label names a phase-1 point on the run timeline and in provenance call
// lines: attachment (with the degree for prefetch points) and workload.
func (dp designPoint) label() string {
	if dp.mem.Attach == memsim.AttachPrefetch {
		return fmt.Sprintf("prefetch-%d/%s", dp.mem.Prefetch.Degree, dp.w.Name())
	}
	return dp.mem.Attach.String() + "/" + dp.w.Name()
}
