package fullsys

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"runtime/debug"
	"sync"
	"testing"

	"lva/internal/memsim"
	"lva/internal/trace"
	"lva/internal/value"
)

// threadLayout assigns access i of n to a thread.
type threadLayout func(i, n, threads int) uint8

// roundRobin interleaves the threads access by access, as canneal records
// them: every core queue stays a few accesses deep.
func roundRobin(i, _, threads int) uint8 { return uint8(i % threads) }

// partitioned gives each thread one contiguous share of the stream, as the
// other six kernels record them (SetThread(i*4/n)): the earlier threads'
// accesses are buffered until the last thread's first access is decoded.
func partitioned(i, n, threads int) uint8 { return uint8(i * threads / n) }

// encodeGridStream synthesizes a multi-chunk, multi-thread grid stream with
// mixed loads/stores/approximate accesses and returns the encoded bytes
// plus its header. Each access also goes to every one of also.
func encodeGridStream(t testing.TB, n, threads int, layout threadLayout, also ...memsim.Sink) ([]byte, trace.GridHeader) {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewGridWriter(&buf, "unit", "k", 1)
	sink := append(tee{w}, also...)
	insts := uint64(0)
	for i := 0; i < n; i++ {
		thread := layout(i, n, threads)
		pc := 0x400 + uint64(i%8)*4
		addr := 0x10000 + uint64(i*2654435761)%2048*64
		if i%5 == 0 {
			sink.Access(pc, addr, value.Value{}, trace.Store, false, thread, insts)
		} else {
			sink.Access(pc, addr, value.FromInt(int64(i%97)), trace.Load, i%2 == 0, thread, insts)
		}
		insts += 1 + uint64(i%7)
	}
	hdr, err := w.Finish(insts+5, nil)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return buf.Bytes(), hdr
}

// gridReader opens an encoded grid stream.
func gridReader(t testing.TB, encoded []byte) *trace.GridReader {
	t.Helper()
	gr, err := trace.NewGridReader(bytes.NewReader(encoded))
	if err != nil {
		t.Fatal(err)
	}
	return gr
}

// decodeAll materializes a grid stream into one access slice.
func decodeAll(t testing.TB, encoded []byte) []trace.Access {
	t.Helper()
	gr := gridReader(t, encoded)
	var all []trace.Access
	for {
		accs, _, err := gr.Next()
		if err == io.EOF {
			return all
		}
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, accs...)
	}
}

// refRun is the reference RunStream is checked against: it packs the whole
// stream into per-core queues of records up front, then replays it on s.
// Each trace thread maps to one core. refRun may be called once per Sim.
func refRun(s *Sim, accs []trace.Access) Result {
	cores := s.newCores()
	// Count each core's share first so the per-core queues are allocated
	// exactly once instead of growing through repeated copies of
	// multi-million-access traces.
	counts := make([]int, s.cfg.Cores)
	for i := range accs {
		counts[int(accs[i].Thread)%s.cfg.Cores]++
	}
	queues := make([][]record, s.cfg.Cores)
	for i := range queues {
		queues[i] = make([]record, 0, counts[i])
	}
	for _, a := range accs {
		i := int(a.Thread) % s.cfg.Cores
		queues[i] = append(queues[i], record{})
		queues[i][len(queues[i])-1].set(a.PC, a.Addr, a.Value, a.Op, a.Approx, a.Gap)
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
			key := cores[i].cycleQ + uint64(q[0].gap)
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

// resplitSource re-chunks another ChunkSource: its chunks hold sizes[0],
// sizes[1], ... accesses (cycling through sizes), whatever the boundaries
// of the source were.
type resplitSource struct {
	src   trace.ChunkSource
	sizes []int
	next  int

	accs  []trace.Access
	insts []uint64
	given int // accesses returned by the previous call
	eof   bool
}

func (r *resplitSource) Next() ([]trace.Access, []uint64, error) {
	r.accs, r.insts = r.accs[r.given:], r.insts[r.given:]
	size := r.sizes[r.next%len(r.sizes)]
	r.next++
	for len(r.accs) < size && !r.eof {
		accs, insts, err := r.src.Next()
		if err == io.EOF {
			r.eof = true
			break
		}
		if err != nil {
			return nil, nil, err
		}
		r.accs = append(r.accs, accs...)
		r.insts = append(r.insts, insts...)
	}
	if len(r.accs) == 0 {
		return nil, nil, io.EOF
	}
	r.given = min(size, len(r.accs))
	return r.accs[:r.given], r.insts[:r.given], nil
}

// checkConservation asserts event-count invariants every phase-2 result
// satisfies: each L2 access is a fetch or an L1 writeback, and the energy
// tally counts exactly the L2 and DRAM events the result reports.
func checkConservation(t *testing.T, r Result) {
	t.Helper()
	if r.L2Accesses != r.Fetches+r.Writebacks {
		t.Errorf("L2 accesses %d != fetches %d + writebacks %d", r.L2Accesses, r.Fetches, r.Writebacks)
	}
	if r.Energy.L2Accesses != r.L2Accesses {
		t.Errorf("energy tally L2 accesses %d != result %d", r.Energy.L2Accesses, r.L2Accesses)
	}
	if r.Energy.DRAMAccesses != r.DRAMAccesses {
		t.Errorf("energy tally DRAM accesses %d != result %d", r.Energy.DRAMAccesses, r.DRAMAccesses)
	}
}

// TestRunStreamMatchesRun is the phase-2 streaming contract: chunked replay
// through per-core queues must pick accesses in exactly the order the
// materialized refRun does, so every counter — cycles, traffic, energy — is
// identical, for either thread layout and wherever the chunk boundaries
// fall.
func TestRunStreamMatchesRun(t *testing.T) {
	// Chunk sizes to re-split the stream into; nil keeps the recorded
	// chunks.
	splits := [][]int{nil, {1}, {7}, {4096}, {math.MaxInt}}
	layouts := []struct {
		name   string
		layout threadLayout
	}{{"round-robin", roundRobin}, {"partitioned", partitioned}}
	for _, threads := range []int{1, 3, 4} {
		for _, l := range layouts {
			encoded, hdr := encodeGridStream(t, 20000, threads, l.layout)
			if hdr.Chunks < 2 {
				t.Fatalf("stream too small to exercise chunking: %d chunks", hdr.Chunks)
			}
			all := decodeAll(t, encoded)

			for _, withApprox := range []bool{false, true} {
				cfg := DefaultConfig()
				if withApprox {
					cfg.Approx = approxCfg(4)
				}
				want := refRun(New(cfg), all)
				checkConservation(t, want)
				for _, sizes := range splits {
					var src trace.ChunkSource = gridReader(t, encoded)
					if sizes != nil {
						src = &resplitSource{src: src, sizes: sizes}
					}
					got, err := New(cfg).RunStream(hdr.Threads, src)
					if err != nil {
						t.Fatalf("RunStream: %v", err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("threads=%d layout=%s approx=%v chunk sizes=%v: streamed result differs\n got %+v\nwant %+v",
							threads, l.name, withApprox, sizes, got, want)
					}
				}
			}
		}
	}
}

// FuzzRunStreamChunking checks that RunStream's result does not depend on
// where chunk boundaries fall: each fuzz byte b sets the size of one chunk
// (1 + b*b accesses, cycling).
func FuzzRunStreamChunking(f *testing.F) {
	encoded, hdr := encodeGridStream(f, 6000, 3, partitioned)
	cfg := DefaultConfig()
	cfg.Approx = approxCfg(2)
	want := refRun(New(cfg), decodeAll(f, encoded))
	f.Add([]byte{0})
	f.Add([]byte{2, 64})
	f.Add([]byte{255, 0, 13, 1})
	f.Fuzz(func(t *testing.T, split []byte) {
		if len(split) == 0 {
			return
		}
		sizes := make([]int, len(split))
		for i, b := range split {
			sizes[i] = 1 + int(b)*int(b)
		}
		got, err := New(cfg).RunStream(hdr.Threads, &resplitSource{src: gridReader(t, encoded), sizes: sizes})
		if err != nil {
			t.Fatalf("RunStream: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk sizes %v: streamed result differs\n got %+v\nwant %+v", sizes, got, want)
		}
	})
}

func TestRunStreamPropagatesDecodeErrors(t *testing.T) {
	encoded, hdr := encodeGridStream(t, 20000, 4, roundRobin)
	gr, err := trace.NewGridReader(bytes.NewReader(encoded[:len(encoded)/2]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(DefaultConfig()).RunStream(hdr.Threads, gr); err == nil {
		t.Fatal("truncated stream must surface an error")
	}
}

// TestRunStreamRejectsUndeclaredThreads covers recording footers whose
// thread count does not cover the stream: RunStream must not return a
// partial result as if it were complete.
func TestRunStreamRejectsUndeclaredThreads(t *testing.T) {
	encoded, hdr := encodeGridStream(t, 20000, 3, partitioned)
	for _, threads := range []int{0, hdr.Threads - 1} {
		r, err := New(DefaultConfig()).RunStream(threads, gridReader(t, encoded))
		if err == nil {
			t.Errorf("threads=%d for a %d-thread stream: no error, result %+v", threads, hdr.Threads, r)
		}
	}

	// An empty recording declares 0 threads and is an empty run.
	encoded, hdr = encodeGridStream(t, 0, 1, roundRobin)
	r, err := New(DefaultConfig()).RunStream(hdr.Threads, gridReader(t, encoded))
	if err != nil || r.Cycles != 0 || r.Instructions != 0 {
		t.Fatalf("empty stream with %d threads: %+v, %v", hdr.Threads, r, err)
	}
}

// coherentStream encodes n accesses whose four threads interleave and
// share blocks, so stores invalidate and loads flush remote copies. The
// accesses are spaced further apart than any miss takes to complete, so the
// cores advance in lockstep.
func coherentStream(t *testing.T, n int) ([]byte, trace.GridHeader) {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewGridWriter(&buf, "unit", "k", 1)
	for i := 0; i < n; i++ {
		addr := 0x10000 + uint64(i/4*2654435761)%2048*64
		op := trace.Load
		if i%5 == 0 {
			op = trace.Store
		}
		w.Access(0x400+uint64(i%8)*4, addr, value.FromInt(int64(i%97)), op, i%2 == 0, uint8(i%4), uint64(i)*4000)
	}
	hdr, err := w.Finish(uint64(n)*4000, nil)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), hdr
}

// TestRunAllocsDoNotGrow pins the phase-2 hot path allocation-free: once
// rings and the directory have reached their working size, running a
// decoded Stream four times as long allocates nothing more. The collector
// is off while measuring: after each cycle the runtime cleans up the unique
// package's maps on its own goroutine, and those allocations would count
// against the longer stream, which collects more often.
func TestRunAllocsDoNotGrow(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := DefaultConfig()
	cfg.Approx = approxCfg(4)
	allocs := func(n int) float64 {
		encoded, hdr := coherentStream(t, n)
		st, err := Decode(cfg.Cores, hdr.Threads, gridReader(t, encoded))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			r, err := New(cfg).Run(st)
			if err != nil {
				t.Fatal(err)
			}
			checkConservation(t, r)
			if r.Invalidations == 0 || r.Flushes == 0 {
				t.Fatalf("stream must exercise coherence: %+v", r)
			}
		})
	}
	short, long := allocs(20000), allocs(80000)
	t.Logf("Run allocations: %v for 20000 accesses, %v for 80000", short, long)
	if long > short {
		t.Fatalf("Run allocations grow with the stream: %v for 20000 accesses, %v for 80000", short, long)
	}
}

// TestDecodeAllocatesOneBlockPerChunk bounds decoding a grid file: one
// block per streamBlockAccesses accesses of each core, plus a constant.
// The constant covers Decode's four (the Capture, its Stream and the two
// per-core lists) and a fresh GridReader's, which reuses its payload and
// access buffers from chunk to chunk (21 in all today, most of them the
// footer's JSON).
// A GridReader or a Decode that allocated per chunk would exceed the bound
// at 80000 accesses (20 chunks).
func TestDecodeAllocatesOneBlockPerChunk(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const cores, slack = 4, 24
	for _, n := range []int{20000, 80000} {
		encoded, hdr := coherentStream(t, n)
		// The threads interleave, so every core gets n/cores accesses.
		blocks := cores * ((n/cores + streamBlockAccesses - 1) / streamBlockAccesses)
		got := testing.AllocsPerRun(3, func() {
			if _, err := Decode(cores, hdr.Threads, gridReader(t, encoded)); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d accesses: decoding made %v allocations for %d blocks", n, got, blocks)
		if got > float64(blocks+slack) {
			t.Errorf("%d accesses: decoding made %v allocations, want at most %d blocks + %d", n, got, blocks, slack)
		}
	}
}

// TestRunSharedStreamConcurrently runs one decoded Stream, and then one
// captured Stream of the same accesses, on six Sims at once; each result
// must equal a RunStream of its own. Under -race this also checks that Run
// only reads the Stream.
func TestRunSharedStreamConcurrently(t *testing.T) {
	c := NewCapture(DefaultConfig().Cores)
	encoded, hdr := encodeGridStream(t, 20000, 4, partitioned, c)
	var cfgs []Config
	for _, d := range []int{-1, 0, 2, 4, 8, 16} {
		cfg := DefaultConfig()
		if d >= 0 {
			cfg.Approx = approxCfg(d)
		}
		cfgs = append(cfgs, cfg)
	}
	want := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		r, err := New(cfg).RunStream(hdr.Threads, gridReader(t, encoded))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	decoded, err := Decode(DefaultConfig().Cores, hdr.Threads, gridReader(t, encoded))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		name string
		st   *Stream
	}{{"decoded", decoded}, {"captured", c.Stream()}} {
		got := make([]Result, len(cfgs))
		errs := make([]error, len(cfgs))
		var wg sync.WaitGroup
		for i := range cfgs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], errs[i] = New(cfgs[i]).Run(s.st)
			}(i)
		}
		wg.Wait()
		for i := range cfgs {
			if errs[i] != nil {
				t.Fatalf("%s stream, config %d: %v", s.name, i, errs[i])
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s stream, config %d: shared-stream result differs\n got %+v\nwant %+v", s.name, i, got[i], want[i])
			}
		}
	}
}

// TestRunRejectsOtherCoreCount covers a Stream decoded for another core
// count: its accesses are filed by the wrong core mapping, so Run must
// refuse it rather than simulate it.
func TestRunRejectsOtherCoreCount(t *testing.T) {
	encoded, hdr := encodeGridStream(t, 5000, 4, roundRobin)
	st, err := Decode(2, hdr.Threads, gridReader(t, encoded))
	if err != nil {
		t.Fatal(err)
	}
	if r, err := New(DefaultConfig()).Run(st); err == nil {
		t.Fatalf("2-core stream on a %d-core Sim: no error, result %+v", DefaultConfig().Cores, r)
	}
	if _, err := Decode(0, hdr.Threads, gridReader(t, encoded)); err == nil {
		t.Fatal("Decode for 0 cores: no error")
	}
	c := NewCapture(2)
	encodeGridStream(t, 5000, 4, roundRobin, c)
	if r, err := New(DefaultConfig()).Run(c.Stream()); err == nil {
		t.Fatalf("2-core capture on a %d-core Sim: no error, result %+v", DefaultConfig().Cores, r)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewCapture for 0 cores: no panic")
		}
	}()
	NewCapture(0)
}
