package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"

	"lva/internal/value"
)

// gridEvent is one access as the simulator's capture hook sees it: the
// precise value plus the global instruction count at the access.
type gridEvent struct {
	pc, addr uint64
	v        value.Value
	op       Op
	approx   bool
	thread   uint8
	insts    uint64
}

// buildGridEvents generates a deterministic multi-thread stream exercising
// the encoding's edge cases: int and float values, exact value repeats,
// stores, negative PC/addr deltas, long same-thread runs, and one gap large
// enough to clamp the per-thread Gap field.
func buildGridEvents(n int) []gridEvent {
	evs := make([]gridEvent, 0, n)
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	insts := uint64(0)
	pcs := []uint64{0x400, 0x404, 0x10408, 0x40c} // revisits force negative deltas
	var prev value.Value
	for i := 0; i < n; i++ {
		r := next()
		ev := gridEvent{
			pc:     pcs[r%uint64(len(pcs))],
			addr:   0x10000 + (r>>8)%4096*8,
			thread: uint8(r >> 16 % 3),
			insts:  insts,
		}
		if i > 100 && i < 200 {
			ev.thread = 2 // long same-thread run: no thread bytes
		}
		switch r >> 24 % 4 {
		case 0:
			ev.op = Store
		case 1:
			ev.v = value.FromInt(int64(r>>32) - 1<<30)
			ev.approx = true
		case 2:
			ev.v = value.FromFloat(float64(r>>40) / 7)
			ev.approx = true
		default:
			ev.v = prev // exact repeat of the previous load value
		}
		if ev.op == Load {
			prev = ev.v
		}
		evs = append(evs, ev)
		insts += 1 + r>>48%64
		if i == n/2 {
			insts += 1 << 31 // forces the per-thread Gap clamp on every thread
		}
	}
	return evs
}

// expectedAccesses derives the accesses a reader must return for the event
// stream: per-thread gaps clamped to 2^30, and a zero Value on stores.
func expectedAccesses(evs []gridEvent) []Access {
	lastEnd := make([]uint64, 256)
	out := make([]Access, 0, len(evs))
	for _, ev := range evs {
		gap := ev.insts - lastEnd[ev.thread]
		if gap > 1<<30 {
			gap = 1 << 30
		}
		lastEnd[ev.thread] = ev.insts + 1
		a := Access{PC: ev.pc, Addr: ev.addr, Gap: uint32(gap), Thread: ev.thread, Op: ev.op, Approx: ev.approx}
		if ev.op == Load {
			a.Value = ev.v
		}
		out = append(out, a)
	}
	return out
}

func writeGrid(t *testing.T, evs []gridEvent, instructions uint64, meta json.RawMessage) (*bytes.Buffer, GridHeader) {
	t.Helper()
	var buf bytes.Buffer
	w := NewGridWriter(&buf, "wl", "key|cfg|seed=42", 42)
	for _, ev := range evs {
		w.Access(ev.pc, ev.addr, ev.v, ev.op, ev.approx, ev.thread, ev.insts)
	}
	hdr, err := w.Finish(instructions, meta)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return &buf, hdr
}

func readGrid(t *testing.T, r io.Reader) ([]Access, []uint64, GridHeader) {
	t.Helper()
	gr, err := NewGridReader(r)
	if err != nil {
		t.Fatalf("NewGridReader: %v", err)
	}
	var accs []Access
	var insts []uint64
	for {
		a, in, err := gr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		accs = append(accs, a...) // reader reuses buffers; append copies
		insts = append(insts, in...)
	}
	hdr, ok := gr.Header()
	if !ok {
		t.Fatal("Header not available after EOF")
	}
	return accs, insts, hdr
}

func TestGridRoundTrip(t *testing.T) {
	const n = 10000 // three chunks
	evs := buildGridEvents(n)
	want := expectedAccesses(evs)
	finalInsts := evs[n-1].insts + 17 // trailing Tick work after the last access
	meta := json.RawMessage(`{"Instructions":123}`)
	buf, whdr := writeGrid(t, evs, finalInsts, meta)
	encoded := append([]byte(nil), buf.Bytes()...)

	accs, insts, hdr := readGrid(t, buf)
	if len(accs) != n {
		t.Fatalf("decoded %d accesses, want %d", len(accs), n)
	}
	for i := range accs {
		if accs[i] != want[i] {
			t.Fatalf("access %d = %+v, want %+v", i, accs[i], want[i])
		}
		if insts[i] != evs[i].insts {
			t.Fatalf("access %d global insts = %d, want %d", i, insts[i], evs[i].insts)
		}
	}
	if whdr.Accesses != hdr.Accesses || whdr.Chunks != hdr.Chunks {
		t.Fatalf("Finish returned %+v but file carries %+v", whdr, hdr)
	}
	var loads, stores, approx uint64
	for _, a := range want {
		if a.Op == Store {
			stores++
		} else {
			loads++
			if a.Approx {
				approx++
			}
		}
	}
	if hdr.Name != "wl" || hdr.Key != "key|cfg|seed=42" || hdr.Seed != 42 {
		t.Fatalf("header identity = %q/%q/%d", hdr.Name, hdr.Key, hdr.Seed)
	}
	if hdr.Accesses != n || hdr.Loads != loads || hdr.Stores != stores || hdr.ApproxLoads != approx {
		t.Fatalf("header counts = %+v, want n=%d loads=%d stores=%d approx=%d", hdr, n, loads, stores, approx)
	}
	if hdr.Instructions != finalInsts || hdr.Threads != 3 || hdr.Chunks != 3 {
		t.Fatalf("header = insts %d threads %d chunks %d", hdr.Instructions, hdr.Threads, hdr.Chunks)
	}
	if !bytes.Equal(hdr.Meta, meta) {
		t.Fatalf("meta = %s, want %s", hdr.Meta, meta)
	}

	// The one-seek footer path must agree with the streaming path.
	fhdr, err := ReadGridFooter(bytes.NewReader(encoded))
	if err != nil {
		t.Fatalf("ReadGridFooter: %v", err)
	}
	if fhdr.Accesses != hdr.Accesses || fhdr.Key != hdr.Key || !bytes.Equal(fhdr.Meta, hdr.Meta) {
		t.Fatalf("footer header %+v disagrees with streamed header %+v", fhdr, hdr)
	}

	// Compression sanity: the whole point of the delta encoding.
	if perAccess := float64(len(encoded)) / n; perAccess > 12 {
		t.Errorf("encoding averages %.1f bytes/access, want at most 12", perAccess)
	}
}

func TestGridEmptyStream(t *testing.T) {
	buf, _ := writeGrid(t, nil, 99, nil)
	accs, _, hdr := readGrid(t, buf)
	if len(accs) != 0 {
		t.Fatalf("decoded %d accesses from empty stream", len(accs))
	}
	if hdr.Accesses != 0 || hdr.Chunks != 0 || hdr.Threads != 0 || hdr.Instructions != 99 {
		t.Fatalf("empty header = %+v", hdr)
	}
}

// TestGridValueRepeatEdges pins the trickiest encoder states by hand: a
// first load whose value equals the zero prev-value, repeats spanning a
// store (stores must not disturb load-value context), and kind changes
// between bit-identical payloads.
func TestGridValueRepeatEdges(t *testing.T) {
	evs := []gridEvent{
		{pc: 8, addr: 64, v: value.FromInt(0), op: Load, thread: 2, insts: 0},                         // == zero prevVal
		{pc: 8, addr: 128, op: Store, thread: 2, insts: 1},                                            // store between repeats
		{pc: 8, addr: 192, v: value.FromInt(0), op: Load, thread: 2, insts: 2},                        // repeat across store
		{pc: 16, addr: 64, v: value.Value{Bits: 0, Kind: value.Float}, op: Load, thread: 0, insts: 3}, // same bits, new kind
		{pc: 8, addr: 32, v: value.Value{Bits: 0, Kind: value.Float}, op: Load, thread: 2, insts: 40}, // float repeat
	}
	want := expectedAccesses(evs)
	buf, _ := writeGrid(t, evs, 41, nil)
	accs, _, _ := readGrid(t, buf)
	for i := range want {
		if accs[i] != want[i] {
			t.Fatalf("access %d = %+v, want %+v", i, accs[i], want[i])
		}
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n -= len(p); f.n < 0 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestGridWriterStickyError(t *testing.T) {
	w := NewGridWriter(&failWriter{n: 16}, "wl", "k", 1)
	for i := 0; i < 2*gridChunkAccesses; i++ { // forces a chunk flush into the failing writer
		w.Access(uint64(i), uint64(i*8), value.FromInt(int64(i)), Load, false, 0, uint64(i))
	}
	if _, err := w.Finish(uint64(2*gridChunkAccesses), nil); err == nil {
		t.Fatal("Finish must surface the write error")
	}
	if _, err := w.Finish(0, nil); !errors.Is(err, errGridFinished) {
		t.Fatalf("second Finish = %v, want errGridFinished", err)
	}
}

// FuzzGridRead ensures the chunk decoder never panics and always terminates
// on arbitrary bytes: every Next call either consumes input or errors.
func FuzzGridRead(f *testing.F) {
	evs := buildGridEvents(300)
	var buf bytes.Buffer
	w := NewGridWriter(&buf, "seed", "k", 7)
	for _, ev := range evs {
		w.Access(ev.pc, ev.addr, ev.v, ev.op, ev.approx, ev.thread, ev.insts)
	}
	if _, err := w.Finish(evs[len(evs)-1].insts+1, json.RawMessage(`{"a":1}`)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("LVAG garbage"))
	raw := append([]byte(nil), buf.Bytes()...)
	raw[4] ^= 0xFF // version corruption
	f.Add(raw)
	raw2 := append([]byte(nil), buf.Bytes()...)
	raw2[20] ^= 0x80 // payload corruption
	f.Add(raw2)

	f.Fuzz(func(t *testing.T, data []byte) {
		gr, err := NewGridReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var total int
		for {
			accs, insts, err := gr.Next()
			if err != nil {
				break
			}
			if len(accs) != len(insts) {
				t.Fatalf("Next returned %d accesses but %d instruction indices", len(accs), len(insts))
			}
			if len(accs) == 0 {
				t.Fatal("Next returned an empty chunk without error")
			}
			total += len(accs)
		}
		if hdr, ok := gr.Header(); ok && hdr.Accesses < uint64(total) {
			// A parseable footer may disagree with the chunks (fuzzer can
			// splice streams) but decoded chunks are bounded by the framing.
			t.Logf("footer claims %d accesses, decoded %d", hdr.Accesses, total)
		}
		_, _ = ReadGridFooter(bytes.NewReader(data))
	})
}
