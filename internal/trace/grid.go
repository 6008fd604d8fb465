// Grid traces are the record-once/replay-many encoding behind the phase-1
// design grid: one file per distinct (workload, seed) annotated access
// stream, written while the kernel executes once and replayed against every
// cache/approximator configuration afterwards. The paper's annotation rules
// (§IV: no approximate data in control flow, addresses, or denominators)
// make the precise (PC, addr, value) stream config-invariant, so the
// recording is reusable across the whole grid.
//
// Grid traces stream: accesses are delta-encoded into fixed-size chunks so
// neither the writer nor the reader ever materializes the whole stream, and
// the self-describing header travels in a footer (counts are unknown until
// the run finishes) that a stat tool can fetch with one seek.
//
// Layout (all little-endian):
//
//	magic u32 "LVAG" | version u32
//	chunk*:  count u32 (>0) | payloadLen u32 | payload
//	footer:  count u32 (=0) | footerLen u32 | GridHeader JSON
//	         | footerLen u32 | magic u32        (trailer, for ReadGridFooter)
//
// Per access the payload carries: a flags byte; the thread id (only when it
// changed); the TRUE global instruction gap since the previous access as a
// uvarint (the writer does not clamp — the reader reconstructs exact global
// instruction indices from it, then derives the clamped per-thread Gap the
// in-memory Access carries); the PC and address as zigzag varint deltas
// against the previous access; and for loads the precise value — 8 raw
// bytes for floats, a zigzag varint for ints, elided entirely when it
// exactly repeats the previous load's value.
package trace

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"lva/internal/value"
)

const (
	gridMagic   = uint32(0x4C564147) // "LVAG"
	gridVersion = uint32(1)

	gridStore        = 1 << 0
	gridApprox       = 1 << 1
	gridFloat        = 1 << 2
	gridValueRepeat  = 1 << 3
	gridThreadChange = 1 << 4

	// gridChunkAccesses caps accesses per chunk: large enough to amortize
	// framing, small enough that replay decodes into a reusable buffer.
	gridChunkAccesses = 4096
	// maxGridPayload bounds a chunk payload; the worst legal case
	// (gridChunkAccesses accesses at maximum varint width) is ~170 KB, so
	// anything above 1 MB is corruption, not data.
	maxGridPayload = 1 << 20
	maxGridFooter  = 1 << 20
)

// Grid decode errors. Decoding never panics: arbitrary bytes either parse
// or surface one of these (possibly wrapped with position context).
var (
	errGridMagic    = errors.New("trace: bad grid magic")
	errGridVersion  = errors.New("trace: unsupported grid version")
	errGridChunk    = errors.New("trace: corrupt grid chunk")
	errGridFooter   = errors.New("trace: corrupt grid footer")
	errGridFinished = errors.New("trace: grid writer already finished")
)

// GridHeader describes a recorded grid stream. It is written as the file's
// JSON footer and doubles as the replay front-end's summary of the
// recording run: Meta carries the recording simulation's marshaled result
// so counter figures can be served without touching the kernel again.
type GridHeader struct {
	// Name is the workload name.
	Name string
	// Key is the run-cache key of the recording run, tying the file to the
	// exact (attachment, workload, config, seed) that produced it.
	Key string
	// Seed is the workload RNG seed.
	Seed uint64

	Accesses    uint64
	Loads       uint64
	Stores      uint64
	ApproxLoads uint64
	// Instructions is the recording run's final instruction count,
	// including trailing Tick work after the last access.
	Instructions uint64
	// Threads is 1 + the highest thread id recorded.
	Threads int
	Chunks  uint64

	// Meta is opaque recorder payload (the experiments layer stores the
	// recording run's memsim.Result here).
	Meta json.RawMessage
}

// GridWriter streams accesses into the chunked grid encoding. Errors are
// sticky: Access becomes a no-op after the first write failure and Finish
// reports it. Not safe for concurrent use.
type GridWriter struct {
	w   io.Writer
	err error

	name string
	key  string
	seed uint64

	// buf holds the chunk being built: 8 bytes reserved for its frame
	// (count, payloadLen), then the payload, so each chunk goes out in one
	// Write and no frame buffer escapes through the io.Writer.
	buf   []byte
	count int

	prevPC     uint64
	prevAddr   uint64
	prevVal    value.Value
	lastThread uint8
	lastEnd    uint64 // global instruction index just past the previous access

	accesses    uint64
	loads       uint64
	stores      uint64
	approxLoads uint64
	threads     int
	chunks      uint64
	finished    bool
}

// NewGridWriter starts a grid stream on w, writing the file preamble
// immediately. name/key/seed are recorded verbatim into the footer.
func NewGridWriter(w io.Writer, name, key string, seed uint64) *GridWriter {
	g := &GridWriter{w: w, name: name, key: key, seed: seed, buf: make([]byte, 8)}
	var pre [8]byte
	binary.LittleEndian.PutUint32(pre[0:], gridMagic)
	binary.LittleEndian.PutUint32(pre[4:], gridVersion)
	if _, err := w.Write(pre[:]); err != nil {
		g.err = err
	}
	return g
}

// Access appends one access. insts is the global instruction count at the
// moment of the access (before the access instruction itself retires),
// exactly what the simulator's capture hook observes; the writer stores the
// unclamped global gap so replay can reconstruct exact instruction indices.
func (g *GridWriter) Access(pc, addr uint64, v value.Value, op Op, approx bool, thread uint8, insts uint64) {
	if g.err != nil {
		return
	}
	var flags byte
	if op == Store {
		flags = gridStore
	}
	if approx {
		flags |= gridApprox
	}
	repeat := false
	if op == Load {
		if v.Kind == value.Float {
			flags |= gridFloat
		}
		if v == g.prevVal {
			repeat = true
			flags |= gridValueRepeat
		}
	}
	threadChanged := thread != g.lastThread
	if threadChanged {
		flags |= gridThreadChange
	}
	b := append(g.buf, flags)
	if threadChanged {
		b = append(b, thread)
		g.lastThread = thread
	}
	// The access instruction itself is not part of the next gap.
	b = binary.AppendUvarint(b, insts-g.lastEnd)
	g.lastEnd = insts + 1
	b = binary.AppendVarint(b, int64(pc-g.prevPC))
	b = binary.AppendVarint(b, int64(addr-g.prevAddr))
	g.prevPC, g.prevAddr = pc, addr
	if op == Load {
		if !repeat {
			if v.Kind == value.Float {
				b = binary.LittleEndian.AppendUint64(b, v.Bits)
			} else {
				b = binary.AppendVarint(b, int64(v.Bits))
			}
		}
		g.prevVal = v
		g.loads++
		if approx {
			g.approxLoads++
		}
	} else {
		g.stores++
	}
	g.buf = b
	if int(thread) >= g.threads {
		g.threads = int(thread) + 1
	}
	g.accesses++
	g.count++
	if g.count >= gridChunkAccesses {
		g.flushChunk()
	}
}

// flushChunk frames and writes the buffered accesses.
func (g *GridWriter) flushChunk() {
	if g.count == 0 || g.err != nil {
		return
	}
	binary.LittleEndian.PutUint32(g.buf[0:], uint32(g.count))
	binary.LittleEndian.PutUint32(g.buf[4:], uint32(len(g.buf)-8))
	if _, err := g.w.Write(g.buf); err != nil {
		g.err = err
		return
	}
	g.chunks++
	g.count = 0
	g.buf = g.buf[:8]
}

// Finish flushes the final chunk and writes the footer. instructions is the
// recording run's final instruction count; meta is stored opaquely in the
// header. It returns the header it wrote (also on the writer's behalf the
// first sticky error, if any). The writer is unusable afterwards.
func (g *GridWriter) Finish(instructions uint64, meta json.RawMessage) (GridHeader, error) {
	if g.finished {
		return GridHeader{}, errGridFinished
	}
	g.finished = true
	g.flushChunk()
	if g.err != nil {
		return GridHeader{}, g.err
	}
	hdr := GridHeader{
		Name:         g.name,
		Key:          g.key,
		Seed:         g.seed,
		Accesses:     g.accesses,
		Loads:        g.loads,
		Stores:       g.stores,
		ApproxLoads:  g.approxLoads,
		Instructions: instructions,
		Threads:      g.threads,
		Chunks:       g.chunks,
		Meta:         meta,
	}
	foot, err := json.Marshal(hdr)
	if err != nil {
		return GridHeader{}, err
	}
	if len(foot) > maxGridFooter {
		return GridHeader{}, fmt.Errorf("%w: footer %d bytes exceeds cap", errGridFooter, len(foot))
	}
	var fh [8]byte
	binary.LittleEndian.PutUint32(fh[0:], 0) // count=0 marks the footer
	binary.LittleEndian.PutUint32(fh[4:], uint32(len(foot)))
	if _, err := g.w.Write(fh[:]); err != nil {
		return GridHeader{}, err
	}
	if _, err := g.w.Write(foot); err != nil {
		return GridHeader{}, err
	}
	var trail [8]byte
	binary.LittleEndian.PutUint32(trail[0:], uint32(len(foot)))
	binary.LittleEndian.PutUint32(trail[4:], gridMagic)
	if _, err := g.w.Write(trail[:]); err != nil {
		return GridHeader{}, err
	}
	return hdr, nil
}

// ChunkSource yields a grid stream chunk by chunk: each Next returns the
// decoded accesses plus, for each, the global instruction index at which it
// occurred. It returns io.EOF after the final chunk. Returned slices are
// only valid until the next call — consumers that retain must copy.
type ChunkSource interface {
	Next() ([]Access, []uint64, error)
}

// GridReader streams a grid trace back out of r, reversing the delta
// encoding. It implements ChunkSource with reused buffers.
type GridReader struct {
	r    io.Reader
	hdr  GridHeader
	done bool

	frame   [8]byte // chunk header scratch: a local would escape through io.Reader
	payload []byte
	accs    []Access
	insts   []uint64

	prevPC        uint64
	prevAddr      uint64
	prevVal       value.Value
	lastThread    uint8
	lastEndGlobal uint64
	lastEndThread [256]uint64

	chunks    uint64
	accesses  uint64
	bytes     uint64
	lastBytes int
}

// NewGridReader validates the preamble and positions the reader at the
// first chunk.
func NewGridReader(r io.Reader) (*GridReader, error) {
	var pre [8]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, fmt.Errorf("trace: reading grid preamble: %w", err)
	}
	if m := binary.LittleEndian.Uint32(pre[0:]); m != gridMagic {
		return nil, fmt.Errorf("%w %#x", errGridMagic, m)
	}
	if v := binary.LittleEndian.Uint32(pre[4:]); v != gridVersion {
		return nil, fmt.Errorf("%w %d", errGridVersion, v)
	}
	return &GridReader{r: r}, nil
}

// Header returns the footer header; valid only after Next returned io.EOF.
func (g *GridReader) Header() (GridHeader, bool) { return g.hdr, g.done }

// Next implements ChunkSource.
func (g *GridReader) Next() ([]Access, []uint64, error) {
	if g.done {
		return nil, nil, io.EOF
	}
	if _, err := io.ReadFull(g.r, g.frame[:]); err != nil {
		return nil, nil, fmt.Errorf("trace: reading grid chunk header: %w", err)
	}
	count := int(binary.LittleEndian.Uint32(g.frame[0:]))
	size := int(binary.LittleEndian.Uint32(g.frame[4:]))
	if count == 0 {
		return nil, nil, g.readFooter(size)
	}
	if count > gridChunkAccesses {
		return nil, nil, fmt.Errorf("%w: %d accesses exceeds chunk cap", errGridChunk, count)
	}
	if size > maxGridPayload {
		return nil, nil, fmt.Errorf("%w: %d-byte payload exceeds cap", errGridChunk, size)
	}
	if cap(g.payload) < size {
		g.payload = make([]byte, size)
	}
	p := g.payload[:size]
	if _, err := io.ReadFull(g.r, p); err != nil {
		return nil, nil, fmt.Errorf("trace: reading grid chunk payload: %w", err)
	}
	if cap(g.accs) < count {
		g.accs = make([]Access, count)
		g.insts = make([]uint64, count)
	}
	accs, insts := g.accs[:count], g.insts[:count]
	pos := 0
	for i := 0; i < count; i++ {
		if pos >= len(p) {
			return nil, nil, fmt.Errorf("%w: truncated at access %d", errGridChunk, i)
		}
		flags := p[pos]
		pos++
		thread := g.lastThread
		if flags&gridThreadChange != 0 {
			if pos >= len(p) {
				return nil, nil, fmt.Errorf("%w: truncated thread at access %d", errGridChunk, i)
			}
			thread = p[pos]
			pos++
			g.lastThread = thread
		}
		gap, n := binary.Uvarint(p[pos:])
		if n <= 0 {
			return nil, nil, fmt.Errorf("%w: bad gap varint at access %d", errGridChunk, i)
		}
		pos += n
		dpc, n := binary.Varint(p[pos:])
		if n <= 0 {
			return nil, nil, fmt.Errorf("%w: bad pc varint at access %d", errGridChunk, i)
		}
		pos += n
		daddr, n := binary.Varint(p[pos:])
		if n <= 0 {
			return nil, nil, fmt.Errorf("%w: bad addr varint at access %d", errGridChunk, i)
		}
		pos += n
		g.prevPC += uint64(dpc)
		g.prevAddr += uint64(daddr)

		// Reconstruct the exact global instruction index, then the
		// per-thread gap the in-memory Access format carries, clamped to
		// 2^30.
		at := g.lastEndGlobal + gap
		g.lastEndGlobal = at + 1
		perGap := at - g.lastEndThread[thread]
		if perGap > 1<<30 {
			perGap = 1 << 30
		}
		g.lastEndThread[thread] = at + 1

		a := Access{PC: g.prevPC, Addr: g.prevAddr, Gap: uint32(perGap), Thread: thread, Approx: flags&gridApprox != 0}
		if flags&gridStore != 0 {
			a.Op = Store
		} else {
			switch {
			case flags&gridValueRepeat != 0:
				a.Value = g.prevVal
			case flags&gridFloat != 0:
				if pos+8 > len(p) {
					return nil, nil, fmt.Errorf("%w: truncated float value at access %d", errGridChunk, i)
				}
				a.Value = value.Value{Bits: binary.LittleEndian.Uint64(p[pos:]), Kind: value.Float}
				pos += 8
			default:
				iv, n := binary.Varint(p[pos:])
				if n <= 0 {
					return nil, nil, fmt.Errorf("%w: bad value varint at access %d", errGridChunk, i)
				}
				pos += n
				a.Value = value.Value{Bits: uint64(iv), Kind: value.Int}
			}
			g.prevVal = a.Value
		}
		accs[i] = a
		insts[i] = at
	}
	if pos != len(p) {
		return nil, nil, fmt.Errorf("%w: %d trailing payload bytes", errGridChunk, len(p)-pos)
	}
	g.chunks++
	g.accesses += uint64(count)
	g.bytes += uint64(size) + 8
	g.lastBytes = size + 8
	return accs, insts, nil
}

// DecodedStats reports how much of the stream Next has decoded so far:
// whole chunks, accesses, and payload bytes including the 8-byte
// per-chunk framing (the footer and preamble are excluded).
func (g *GridReader) DecodedStats() (chunks, accesses, bytes uint64) {
	return g.chunks, g.accesses, g.bytes
}

// LastChunkBytes returns the framed size of the most recent chunk Next
// decoded, or 0 before the first chunk.
func (g *GridReader) LastChunkBytes() int { return g.lastBytes }

// readFooter consumes the footer and trailer, then reports io.EOF.
func (g *GridReader) readFooter(size int) error {
	if size > maxGridFooter {
		return fmt.Errorf("%w: %d bytes exceeds cap", errGridFooter, size)
	}
	foot := make([]byte, size)
	if _, err := io.ReadFull(g.r, foot); err != nil {
		return fmt.Errorf("trace: reading grid footer: %w", err)
	}
	if err := json.Unmarshal(foot, &g.hdr); err != nil {
		return fmt.Errorf("%w: %v", errGridFooter, err)
	}
	var trail [8]byte
	if _, err := io.ReadFull(g.r, trail[:]); err != nil {
		return fmt.Errorf("trace: reading grid trailer: %w", err)
	}
	if binary.LittleEndian.Uint32(trail[0:]) != uint32(size) ||
		binary.LittleEndian.Uint32(trail[4:]) != gridMagic {
		return fmt.Errorf("%w: bad trailer", errGridFooter)
	}
	g.done = true
	return io.EOF
}

// ReadGridFooter fetches a grid trace's header via the fixed-size trailer
// at the end of the file, without decoding any chunks.
func ReadGridFooter(rs io.ReadSeeker) (GridHeader, error) {
	if _, err := rs.Seek(-8, io.SeekEnd); err != nil {
		return GridHeader{}, fmt.Errorf("trace: seeking grid trailer: %w", err)
	}
	var trail [8]byte
	if _, err := io.ReadFull(rs, trail[:]); err != nil {
		return GridHeader{}, fmt.Errorf("trace: reading grid trailer: %w", err)
	}
	if m := binary.LittleEndian.Uint32(trail[4:]); m != gridMagic {
		return GridHeader{}, fmt.Errorf("%w %#x in trailer", errGridMagic, m)
	}
	size := int64(binary.LittleEndian.Uint32(trail[0:]))
	if size > maxGridFooter {
		return GridHeader{}, fmt.Errorf("%w: %d bytes exceeds cap", errGridFooter, size)
	}
	if _, err := rs.Seek(-(8 + size), io.SeekEnd); err != nil {
		return GridHeader{}, fmt.Errorf("trace: seeking grid footer: %w", err)
	}
	foot := make([]byte, size)
	if _, err := io.ReadFull(rs, foot); err != nil {
		return GridHeader{}, fmt.Errorf("trace: reading grid footer: %w", err)
	}
	var hdr GridHeader
	if err := json.Unmarshal(foot, &hdr); err != nil {
		return GridHeader{}, fmt.Errorf("%w: %v", errGridFooter, err)
	}
	return hdr, nil
}
