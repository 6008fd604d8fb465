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
	linkFree []uint64 // busy-until cycle per directed link
	stats    Stats
}

// New builds a mesh; it panics on an invalid Config.
func New(cfg Config) *Mesh {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Mesh{cfg: cfg, linkFree: make([]uint64, cfg.Nodes()*directions)}
}

// Config returns the mesh configuration.
func (m *Mesh) Config() Config { return m.cfg }

// Stats returns a copy of the counters.
func (m *Mesh) Stats() Stats { return m.stats }

func (m *Mesh) coord(n int) (x, y int) { return n % m.cfg.Width, n / m.cfg.Width }
func (m *Mesh) node(x, y int) int      { return y*m.cfg.Width + x }

// Route returns the XY-routed node sequence from src to dst (inclusive).
func (m *Mesh) Route(src, dst int) []int {
	path := []int{src}
	x, y := m.coord(src)
	dx, dy := m.coord(dst)
	for x != dx {
		if x < dx {
			x++
		} else {
			x--
		}
		path = append(path, m.node(x, y))
	}
	for y != dy {
		if y < dy {
			y++
		} else {
			y--
		}
		path = append(path, m.node(x, y))
	}
	return path
}

// Hops returns the XY hop count between two nodes.
func (m *Mesh) Hops(src, dst int) int { return len(m.Route(src, dst)) - 1 }

// Send injects a packet of `flits` flits at time `now` and returns its
// arrival time at dst. It walks the XY route (X first, then Y) in place.
// Each directed link serializes: a packet holds the link for `flits`
// cycles, so concurrent traffic queues up. src == dst arrives immediately
// (bank co-located with the core tile).
func (m *Mesh) Send(src, dst int, flits int, now uint64) uint64 {
	m.stats.Packets++
	if src == dst {
		return now
	}
	x, y := m.coord(src)
	dx, dy := m.coord(dst)
	t := now
	for x != dx {
		if x < dx {
			t = m.hop(m.node(x, y), east, flits, t)
			x++
		} else {
			t = m.hop(m.node(x, y), west, flits, t)
			x--
		}
	}
	for y != dy {
		if y < dy {
			t = m.hop(m.node(x, y), south, flits, t)
			y++
		} else {
			t = m.hop(m.node(x, y), north, flits, t)
			y--
		}
	}
	// Tail flits serialize onto the final hop.
	return t + uint64(flits) - 1
}

// hop moves a packet that is ready at t across the link leaving node in
// direction dir and returns when its head reaches the next router.
func (m *Mesh) hop(node, dir, flits int, t uint64) uint64 {
	free := &m.linkFree[node*directions+dir]
	depart := max(t, *free)
	*free = depart + uint64(flits)
	m.stats.FlitHops += uint64(flits)
	return depart + m.cfg.RouterCycles + m.cfg.LinkCycles
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
