package fullsys

import (
	"bytes"
	"runtime/debug"
	"testing"

	"lva/internal/memsim"
	"lva/internal/trace"
	"lva/internal/value"
	"lva/internal/workloads"
)

var _ memsim.Sink = (*Capture)(nil)

// tee hands every access to each of its sinks in turn.
type tee []memsim.Sink

func (t tee) Access(pc, addr uint64, v value.Value, op trace.Op, approx bool, thread uint8, insts uint64) {
	for _, s := range t {
		s.Access(pc, addr, v, op, approx, thread, insts)
	}
}

// checkStreamsEqual fails t unless got files the same records as want into
// the same blocks.
func checkStreamsEqual(t *testing.T, got, want *Stream) {
	t.Helper()
	if len(got.heads) != len(want.heads) {
		t.Fatalf("stream filed for %d cores, want %d", len(got.heads), len(want.heads))
	}
	for c := range want.heads {
		g, w := got.heads[c], want.heads[c]
		for i := 0; g != nil && w != nil; i++ {
			if g.n != w.n {
				t.Fatalf("core %d, block %d: %d records, want %d", c, i, g.n, w.n)
			}
			for j := range w.n {
				if g.recs[j] != w.recs[j] {
					t.Fatalf("core %d, access %d: record %+v, want %+v", c, i*streamBlockAccesses+j, g.recs[j], w.recs[j])
				}
			}
			g, w = g.next, w.next
		}
		if (g == nil) != (w == nil) {
			t.Fatalf("core %d: block lists differ in length", c)
		}
	}
}

// records returns core's records in st, in order.
func records(st *Stream, core int) []record {
	var out []record
	for b := st.heads[core]; b != nil; b = b.next {
		out = append(out, b.recs[:b.n]...)
	}
	return out
}

// TestCaptureMatchesDecode checks a capture against Decode of an LVAG
// recording of the same accesses, and the filing rules themselves, on a
// stream with thread switches, stores (given a value the capture must
// drop), a thread id above the core count and gaps above 2^30.
func TestCaptureMatchesDecode(t *testing.T) {
	const cores = 4
	var buf bytes.Buffer
	gw := trace.NewGridWriter(&buf, "unit", "k", 1)
	c := NewCapture(cores)
	sink := tee{gw, c}
	const jump = 1<<30 + 100
	accs := []struct {
		thread uint8
		insts  uint64
		op     trace.Op
		v      value.Value
		approx bool
	}{
		{0, 3, trace.Load, value.FromFloat(1.5), true},
		{0, 10, trace.Store, value.FromFloat(2.5), false},
		{1, 11, trace.Load, value.FromInt(-7), false},
		{5, 12, trace.Load, value.FromInt(9), true},
		{1, 13, trace.Store, value.FromInt(4), false},
		{0, 14 + jump, trace.Load, value.FromFloat(1.5), true},
		{5, 15 + jump, trace.Load, value.FromInt(9), false},
		{0, 16 + jump, trace.Load, value.FromFloat(1.5), true},
	}
	for i, a := range accs {
		sink.Access(0x400+uint64(i)*4, 0x1000+uint64(i)*64, a.v, a.op, a.approx, a.thread, a.insts)
	}
	hdr, err := gw.Finish(20+jump, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(cores, hdr.Threads, gridReader(t, buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := c.Stream()
	checkStreamsEqual(t, got, want)

	// Thread 0 runs on core 0; threads 1 and 5 share core 1.
	pc := func(i int) uint64 { return 0x400 + uint64(i)*4 }
	addr := func(i int) uint64 { return 0x1000 + uint64(i)*64 }
	for core, wantRecs := range [][]record{
		{
			{addr: addr(0), pc: pc(0), bits: value.FromFloat(1.5).Bits, gap: 3, flags: recFloat | recApprox},
			{addr: addr(1), pc: pc(1), gap: 6, flags: recStore},
			{addr: addr(5), pc: pc(5), bits: value.FromFloat(1.5).Bits, gap: 1 << 30, flags: recFloat | recApprox},
			{addr: addr(7), pc: pc(7), bits: value.FromFloat(1.5).Bits, gap: 1, flags: recFloat | recApprox},
		},
		{
			{addr: addr(2), pc: pc(2), bits: value.FromInt(-7).Bits, gap: 11},
			{addr: addr(3), pc: pc(3), bits: 9, gap: 12, flags: recApprox},
			{addr: addr(4), pc: pc(4), gap: 1, flags: recStore},
			{addr: addr(6), pc: pc(6), bits: 9, gap: 1 << 30},
		},
		nil, nil,
	} {
		gotRecs := records(got, core)
		if len(gotRecs) != len(wantRecs) {
			t.Fatalf("core %d: %d records, want %d: %+v", core, len(gotRecs), len(wantRecs), gotRecs)
		}
		for i := range wantRecs {
			if gotRecs[i] != wantRecs[i] {
				t.Errorf("core %d, record %d: %+v, want %+v", core, i, gotRecs[i], wantRecs[i])
			}
		}
	}

	// A longer stream fills several blocks per core.
	c = NewCapture(cores)
	encoded, hdr := encodeGridStream(t, 40000, 3, roundRobin, c)
	want, err = Decode(cores, hdr.Threads, gridReader(t, encoded))
	if err != nil {
		t.Fatal(err)
	}
	checkStreamsEqual(t, c.Stream(), want)
}

// TestCaptureMatchesDecodeOfKernels runs each kernel precisely at the
// figures' seed with an LVAG writer and a Capture attached: the captured
// Stream must equal Decode of the recording record for record, and hold
// one record per load and store.
func TestCaptureMatchesDecodeOfKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("executes all seven kernels")
	}
	if raceEnabled {
		t.Skip("two streams of every kernel exceed the race detector's memory budget")
	}
	const seed = 42
	cores := DefaultConfig().Cores
	mcfg := memsim.DefaultConfig()
	mcfg.Attach = memsim.AttachNone
	for _, w := range workloads.All() {
		t.Run(w.Name(), func(t *testing.T) {
			var buf bytes.Buffer
			gw := trace.NewGridWriter(&buf, w.Name(), "k", seed)
			c := NewCapture(cores)
			sim := memsim.New(mcfg)
			sim.SetCapture(tee{gw, c})
			w.Run(sim, seed)
			res := sim.Result()
			hdr, err := gw.Finish(res.Instructions, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Decode(cores, hdr.Threads, gridReader(t, buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			got := c.Stream()
			checkStreamsEqual(t, got, want)
			var n uint64
			for core := range cores {
				for b := got.heads[core]; b != nil; b = b.next {
					n += uint64(b.n)
				}
			}
			if n != res.Loads+res.Stores {
				t.Errorf("captured %d accesses, want %d loads + %d stores", n, res.Loads, res.Stores)
			}
		})
	}
}

// TestCaptureAllocatesOneBlockPerChunk bounds a capture's allocations: one
// block per streamBlockAccesses accesses of each core, plus the same small
// constant (the Capture, its Stream and the two per-core lists) whatever
// the length. A capture that allocated per access or per record would
// exceed it.
func TestCaptureAllocatesOneBlockPerChunk(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const cores = 4
	var fixed []float64
	for _, k := range []int{1, 4} {
		n := cores * k * streamBlockAccesses
		got := testing.AllocsPerRun(3, func() {
			c := NewCapture(cores)
			for i := range n {
				c.Access(0x400, uint64(i)*8, value.FromInt(int64(i)), trace.Load, i%2 == 0, uint8(i%cores), uint64(i)*3)
			}
			c.Stream()
		})
		blocks := cores * k
		t.Logf("%d accesses: %v allocations for %d blocks", n, got, blocks)
		fixed = append(fixed, got-float64(blocks))
	}
	if fixed[0] != fixed[1] || fixed[0] > 4 {
		t.Errorf("allocations beyond one per block: %v, want the same constant of at most 4 at every length", fixed)
	}
}
