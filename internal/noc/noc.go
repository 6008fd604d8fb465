// Package noc models the paper's network-on-chip: a 2x2 mesh with 3-cycle
// routers (Table II), XY dimension-order routing, and per-link serialization
// so contention lengthens transfers under load (the paper models the NoC
// with BookSim; this is a lighter-weight link-reservation model that
// captures hop latency, serialization and queueing).
package noc

import "fmt"

// Config describes the mesh.
type Config struct {
	// Width, Height are the mesh dimensions (paper: 2x2).
	Width, Height int
	// RouterCycles is the per-hop router pipeline latency (paper: 3).
	RouterCycles uint64
	// LinkCycles is the per-hop link traversal latency.
	LinkCycles uint64
	// CtrlFlits and DataFlits are packet sizes in flits: control packets
	// carry a request/ack; data packets carry a 64 B cache block.
	CtrlFlits, DataFlits int
}

// DefaultConfig returns the paper's NoC parameters.
func DefaultConfig() Config {
	return Config{Width: 2, Height: 2, RouterCycles: 3, LinkCycles: 1, CtrlFlits: 1, DataFlits: 5}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.Width <= 0 || c.Height <= 0:
		return fmt.Errorf("noc: mesh dimensions must be positive, got %dx%d", c.Width, c.Height)
	case c.CtrlFlits <= 0 || c.DataFlits <= 0:
		return fmt.Errorf("noc: packet sizes must be positive, got ctrl=%d data=%d", c.CtrlFlits, c.DataFlits)
	}
	return nil
}

// Nodes returns the node count.
func (c Config) Nodes() int { return c.Width * c.Height }

// Directed links leave each router in one of four directions; a link's
// busy-until time lives at linkFree[node*4+direction].
const (
	east = iota
	west
	south
	north
	directions
)

// Stats counts NoC activity.
type Stats struct {
	Packets  uint64
	FlitHops uint64 // flits x hops: the traffic/energy measure
}

// Mesh is the interconnect model. Not safe for concurrent use.
type Mesh struct {
	cfg      Config
	nodes    int
	linkFree []uint64 // busy-until cycle per directed link
	// routes[src*nodes+dst] lists the linkFree indices of the XY route
	// from src to dst in hop order. New walks each route once, so Send
	// does no coordinate arithmetic.
	routes [][]int32
	stats  Stats
}

// New builds a mesh; it panics on an invalid Config.
func New(cfg Config) *Mesh {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Nodes()
	m := &Mesh{
		cfg:      cfg,
		nodes:    n,
		linkFree: make([]uint64, n*directions),
		routes:   make([][]int32, n*n),
	}
	// One backing array for all routes: no route is longer than
	// Width+Height-2 hops.
	links := make([]int32, 0, n*n*(cfg.Width+cfg.Height-2))
	for r := range m.routes {
		start := len(links)
		cfg.walk(r/n, r%n, func(from, dir, _ int) {
			links = append(links, int32(from*directions+dir))
		})
		m.routes[r] = links[start:]
	}
	return m
}

// Config returns the mesh configuration.
func (m *Mesh) Config() Config { return m.cfg }

// Stats returns a copy of the counters.
func (m *Mesh) Stats() Stats { return m.stats }

// walk calls hop for each hop of the XY route from src to dst, X first and
// then Y, with the node the hop leaves, its direction and the node it
// reaches.
func (c Config) walk(src, dst int, hop func(from, dir, to int)) {
	at := src
	step := func(dir, delta int) { hop(at, dir, at+delta); at += delta }
	x, y := src%c.Width, src/c.Width
	dx, dy := dst%c.Width, dst/c.Width
	for ; x < dx; x++ {
		step(east, 1)
	}
	for ; x > dx; x-- {
		step(west, -1)
	}
	for ; y < dy; y++ {
		step(south, c.Width)
	}
	for ; y > dy; y-- {
		step(north, -c.Width)
	}
}

// Route returns the XY-routed node sequence from src to dst (inclusive).
func (m *Mesh) Route(src, dst int) []int {
	path := []int{src}
	m.cfg.walk(src, dst, func(_, _, to int) { path = append(path, to) })
	return path
}

// Hops returns the XY hop count between two nodes.
func (m *Mesh) Hops(src, dst int) int { return len(m.routes[src*m.nodes+dst]) }

// Send injects a packet of `flits` flits at time `now` and returns its
// arrival time at dst. It follows the precomputed XY route (X first, then
// Y). Each directed link serializes: a packet holds the link for `flits`
// cycles, so concurrent traffic queues up, and its head reaches the next
// router RouterCycles+LinkCycles after it departs. src == dst arrives
// immediately (bank co-located with the core tile).
func (m *Mesh) Send(src, dst int, flits int, now uint64) uint64 {
	m.stats.Packets++
	if src == dst {
		return now
	}
	f, hop := uint64(flits), m.cfg.RouterCycles+m.cfg.LinkCycles
	t := now
	route := m.routes[src*m.nodes+dst]
	for _, l := range route {
		free := &m.linkFree[l]
		depart := max(t, *free)
		*free = depart + f
		t = depart + hop
	}
	m.stats.FlitHops += f * uint64(len(route))
	// Tail flits serialize onto the final hop.
	return t + f - 1
}

// SendCtrl sends a control packet (request/ack).
func (m *Mesh) SendCtrl(src, dst int, now uint64) uint64 {
	return m.Send(src, dst, m.cfg.CtrlFlits, now)
}

// SendData sends a data packet (one cache block).
func (m *Mesh) SendData(src, dst int, now uint64) uint64 {
	return m.Send(src, dst, m.cfg.DataFlits, now)
}

// Reset clears link reservations and statistics.
func (m *Mesh) Reset() {
	clear(m.linkFree)
	m.stats = Stats{}
}
