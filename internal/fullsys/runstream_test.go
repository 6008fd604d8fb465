package fullsys

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"runtime/debug"
	"testing"

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
// plus its header.
func encodeGridStream(t testing.TB, n, threads int, layout threadLayout) ([]byte, trace.GridHeader) {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewGridWriter(&buf, "unit", "k", 1)
	insts := uint64(0)
	for i := 0; i < n; i++ {
		thread := layout(i, n, threads)
		pc := 0x400 + uint64(i%8)*4
		addr := 0x10000 + uint64(i*2654435761)%2048*64
		if i%5 == 0 {
			w.Access(pc, addr, value.Value{}, trace.Store, false, thread, insts)
		} else {
			w.Access(pc, addr, value.FromInt(int64(i%97)), trace.Load, i%2 == 0, thread, insts)
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

// decodeFlat materializes a grid stream into the in-memory trace format.
func decodeFlat(t testing.TB, encoded []byte) *trace.Trace {
	t.Helper()
	gr := gridReader(t, encoded)
	flat := &trace.Trace{Name: "unit"}
	for {
		accs, _, err := gr.Next()
		if err == io.EOF {
			return flat
		}
		if err != nil {
			t.Fatal(err)
		}
		flat.Accesses = append(flat.Accesses, accs...)
	}
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
// materialized Run does, so every counter — cycles, traffic, energy — is
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
			flat := decodeFlat(t, encoded)

			for _, withApprox := range []bool{false, true} {
				cfg := DefaultConfig()
				if withApprox {
					cfg.Approx = approxCfg(4)
				}
				want := New(cfg).Run(flat)
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
	want := New(cfg).Run(decodeFlat(f, encoded))
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

// TestRunStreamAllocsDoNotGrow pins the streaming hot path allocation-free:
// once queues, rings and the directory have reached their working size,
// simulating four times as many accesses allocates nothing more. The
// threads interleave and share blocks, so stores invalidate and loads flush
// remote copies, and their accesses are spaced further apart than any miss
// takes to complete, so the cores advance in lockstep and the queues stay
// equally shallow at both lengths. The collector is off while measuring:
// after each cycle the runtime cleans up the unique package's maps on its
// own goroutine, and those allocations would count against the longer
// stream, which collects more often.
func TestRunStreamAllocsDoNotGrow(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := DefaultConfig()
	cfg.Approx = approxCfg(4)
	allocs := func(n int) float64 {
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
		return testing.AllocsPerRun(3, func() {
			r, err := New(cfg).RunStream(hdr.Threads, gridReader(t, buf.Bytes()))
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
	if long > short {
		t.Fatalf("RunStream allocations grow with the stream: %v for 20000 accesses, %v for 80000", short, long)
	}
}
