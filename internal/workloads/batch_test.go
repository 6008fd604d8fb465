package workloads

import (
	"bytes"
	"io"
	"testing"

	"lva/internal/memsim"
	"lva/internal/trace"
)

// batchOut collects everything a scenario run produces that the batched
// accessors could possibly change: the decoded grid recording (accesses and
// their global instruction indices) and every value the kernel consumed.
type batchOut struct {
	accs      []trace.Access
	insts     []uint64
	consumed  []float64
	consumedI []int32
}

// runBatchScenario drives one mixed workload through a capturing simulator,
// using either the batched accessors or their documented scalar-loop
// equivalents. The data set (3 SoA float arrays + one pixel array, ~200 KB)
// overflows the 64 KB L1 every pass, so the scenario exercises hits,
// misses, covered approximate misses, delayed training and (under
// AttachPrefetch) prefetch fills.
func runBatchScenario(t *testing.T, att memsim.Attachment, batched bool) batchOut {
	t.Helper()
	cfg := memsim.DefaultConfig()
	cfg.Attach = att
	sim := memsim.New(cfg)
	var rec bytes.Buffer
	gw := trace.NewGridWriter(&rec, "batch-scenario", "k", 99)
	sim.SetCapture(gw)

	arena := NewArena()
	const n = 4096
	ax := NewF64Array(arena, n)
	ay := NewF64Array(arena, n)
	az := NewF64Array(arena, n)
	pix := NewI32Array(arena, 4*n)
	rng := NewRNG(99)
	for i := 0; i < n; i++ {
		ax.Data[i] = rng.Float64()
		ay.Data[i] = rng.Float64()
		az.Data[i] = rng.Float64()
	}
	for i := range pix.Data {
		pix.Data[i] = int32(rng.Intn(256))
	}

	var out batchOut
	arrays := []*F64Array{ax, ay, az}
	gatherPCs := []uint64{pcBase(1, 0), pcBase(1, 1), pcBase(1, 2)}
	rangePC := pcBase(1, 3)
	rowPCs := []uint64{pcBase(1, 4), pcBase(1, 5), pcBase(1, 6), pcBase(1, 7)}
	storePC := pcBase(1, 8)

	fbuf := make([]float64, 64)
	ibuf := make([]int32, 64)
	sbuf := make([]int32, 64)
	for pass := 0; pass < 2; pass++ {
		// SoA gather (blackscholes/fluidanimate shape).
		for i := 0; i < n; i += 7 {
			sim.SetThread(i % 4)
			if batched {
				GatherF64(sim, arrays, gatherPCs, i, true, fbuf[:3])
			} else {
				for k, a := range arrays {
					fbuf[k] = sim.LoadFloat(gatherPCs[k], a.Addr(i), a.Data[i], true)
				}
			}
			out.consumed = append(out.consumed, fbuf[0], fbuf[1], fbuf[2])
			sim.Tick(3)
		}
		// Contiguous same-site range (streaming shape).
		for lo := 0; lo+64 <= n; lo += 512 {
			if batched {
				ax.LoadRange(sim, rangePC, lo, lo+64, true, fbuf)
			} else {
				for i := lo; i < lo+64; i++ {
					fbuf[i-lo] = sim.LoadFloat(rangePC, ax.Addr(i), ax.Data[i], true)
				}
			}
			out.consumed = append(out.consumed, fbuf...)
		}
		// Unrolled pixel row with cycling sites (x264 SAD shape), including
		// a short row (n < len(dst) prefix) like a frame-edge candidate.
		for _, rowLen := range []int{64, 64, 17} {
			lo := (pass + 1) * 321
			if batched {
				pix.LoadRow(sim, rowPCs, lo, rowLen, true, ibuf)
			} else {
				addr := pix.Addr(lo)
				for k := 0; k < rowLen; k++ {
					ibuf[k] = int32(sim.LoadInt(rowPCs[k%len(rowPCs)], addr, int64(pix.Data[lo+k]), true))
					addr += 4
				}
			}
			out.consumedI = append(out.consumedI, ibuf[:rowLen]...)
		}
		// Streaming publish (x264 recon shape).
		for k := range sbuf {
			sbuf[k] = int32(pass*64 + k)
		}
		if batched {
			pix.StoreRange(sim, storePC, 128, sbuf)
		} else {
			addr := pix.Addr(128)
			for k, v := range sbuf {
				pix.Data[128+k] = v
				sim.Store(storePC, addr)
				addr += 4
			}
		}
	}
	if _, err := gw.Finish(sim.Result().Instructions, nil); err != nil {
		t.Fatal(err)
	}
	gr, err := trace.NewGridReader(&rec)
	if err != nil {
		t.Fatal(err)
	}
	for {
		accs, insts, err := gr.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out.accs = append(out.accs, accs...)
		out.insts = append(out.insts, insts...)
	}
}

// TestBatchedAccessorsMatchScalar is the batching contract: under every
// attachment, each batched accessor issues an access stream identical to
// its scalar-loop equivalent — same PCs, addresses, values, ordering,
// thread tags, gaps and instruction indices — and the kernel consumes
// identical values.
func TestBatchedAccessorsMatchScalar(t *testing.T) {
	atts := []memsim.Attachment{
		memsim.AttachNone, memsim.AttachLVA, memsim.AttachLVP, memsim.AttachPrefetch,
	}
	for _, att := range atts {
		t.Run(att.String(), func(t *testing.T) {
			scalar := runBatchScenario(t, att, false)
			batch := runBatchScenario(t, att, true)
			if len(scalar.accs) == 0 {
				t.Fatal("scenario recorded no accesses")
			}
			if len(scalar.accs) != len(batch.accs) {
				t.Fatalf("access count: scalar %d, batched %d",
					len(scalar.accs), len(batch.accs))
			}
			for i := range scalar.accs {
				if scalar.accs[i] != batch.accs[i] || scalar.insts[i] != batch.insts[i] {
					t.Fatalf("access %d differs:\nscalar  %+v at instruction %d\nbatched %+v at instruction %d",
						i, scalar.accs[i], scalar.insts[i], batch.accs[i], batch.insts[i])
				}
			}
			if len(scalar.consumed) != len(batch.consumed) ||
				len(scalar.consumedI) != len(batch.consumedI) {
				t.Fatalf("consumed value counts differ")
			}
			for i := range scalar.consumed {
				if scalar.consumed[i] != batch.consumed[i] {
					t.Fatalf("consumed float %d: scalar %v, batched %v",
						i, scalar.consumed[i], batch.consumed[i])
				}
			}
			for i := range scalar.consumedI {
				if scalar.consumedI[i] != batch.consumedI[i] {
					t.Fatalf("consumed int %d: scalar %v, batched %v",
						i, scalar.consumedI[i], batch.consumedI[i])
				}
			}
		})
	}
}

// TestBatchedAccessorsAllocateNothing pins the batched accessors at zero
// steady-state allocations. Each call reads or writes a window the L1
// already holds (AllocsPerRun's warm-up call fills it), so any allocation
// is the accessor's own.
func TestBatchedAccessorsAllocateNothing(t *testing.T) {
	sim := memsim.New(memsim.DefaultConfig())
	arena := NewArena()
	ax := NewF64Array(arena, 512)
	ay := NewF64Array(arena, 512)
	pix := NewI32Array(arena, 1024)
	arrays := []*F64Array{ax, ay}
	pcs := []uint64{pcBase(1, 0), pcBase(1, 1), pcBase(1, 2), pcBase(1, 3)}
	fbuf := make([]float64, 64)
	ibuf := make([]int32, 64)
	cases := []struct {
		name string
		fn   func()
	}{
		{"F64Array.LoadRange", func() { ax.LoadRange(sim, pcs[0], 0, 64, true, fbuf) }},
		{"I32Array.LoadRange", func() { pix.LoadRange(sim, pcs[0], 0, 64, true, ibuf) }},
		{"I32Array.LoadRow", func() { pix.LoadRow(sim, pcs, 64, 64, true, ibuf) }},
		{"I32Array.StoreRange", func() { pix.StoreRange(sim, pcs[1], 128, ibuf) }},
		{"GatherF64", func() { GatherF64(sim, arrays, pcs[:2], 7, true, fbuf[:2]) }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(200, c.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, n)
		}
	}
}
