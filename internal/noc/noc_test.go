package noc

import (
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Width: 0, Height: 2, CtrlFlits: 1, DataFlits: 5},
		{Width: 2, Height: 2, CtrlFlits: 0, DataFlits: 5},
		{Width: 2, Height: 2, CtrlFlits: 1, DataFlits: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if DefaultConfig().Nodes() != 4 {
		t.Fatal("2x2 mesh must have 4 nodes")
	}
}

func TestXYRoute(t *testing.T) {
	m := New(Config{Width: 3, Height: 3, RouterCycles: 3, LinkCycles: 1, CtrlFlits: 1, DataFlits: 5})
	// Node layout: 0 1 2 / 3 4 5 / 6 7 8. XY: X first, then Y.
	route := m.Route(0, 8)
	want := []int{0, 1, 2, 5, 8}
	if len(route) != len(want) {
		t.Fatalf("route = %v", route)
	}
	for i := range want {
		if route[i] != want[i] {
			t.Fatalf("route = %v, want %v", route, want)
		}
	}
	if m.Hops(0, 8) != 4 {
		t.Fatalf("hops = %d", m.Hops(0, 8))
	}
	if m.Hops(4, 4) != 0 {
		t.Fatal("self route must have 0 hops")
	}
}

func TestRouteAdjacency(t *testing.T) {
	// Property: every consecutive pair in any route is mesh-adjacent.
	m := New(Config{Width: 4, Height: 4, RouterCycles: 3, LinkCycles: 1, CtrlFlits: 1, DataFlits: 5})
	f := func(s, d uint8) bool {
		src, dst := int(s%16), int(d%16)
		route := m.Route(src, dst)
		if route[0] != src || route[len(route)-1] != dst {
			return false
		}
		for i := 0; i+1 < len(route); i++ {
			ax, ay := route[i]%4, route[i]/4
			bx, by := route[i+1]%4, route[i+1]/4
			manhattan := abs(ax-bx) + abs(ay-by)
			if manhattan != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestLatencyUncontended(t *testing.T) {
	m := New(DefaultConfig())
	// 0 -> 3 in a 2x2 mesh: 2 hops, each 3 (router) + 1 (link); a 1-flit
	// control packet adds no serialization beyond the last hop.
	arr := m.SendCtrl(0, 3, 100)
	if want := uint64(100 + 2*4); arr != want {
		t.Fatalf("ctrl arrival = %d, want %d", arr, want)
	}
	// 5-flit data packet: +4 cycles of tail serialization (fresh mesh so
	// the control packet above doesn't contend).
	m = New(DefaultConfig())
	arr = m.SendData(0, 3, 100)
	if want := uint64(100 + 2*4 + 4); arr != want {
		t.Fatalf("data arrival = %d, want %d", arr, want)
	}
}

func TestSelfSendIsFree(t *testing.T) {
	m := New(DefaultConfig())
	if got := m.SendData(2, 2, 55); got != 55 {
		t.Fatalf("self send arrival = %d", got)
	}
	if m.Stats().FlitHops != 0 {
		t.Fatal("self send must not count flit-hops")
	}
}

func TestContentionSerializes(t *testing.T) {
	m := New(DefaultConfig())
	first := m.SendData(0, 1, 100)
	second := m.SendData(0, 1, 100)
	if second <= first {
		t.Fatalf("contending packet must arrive later: %d vs %d", second, first)
	}
	if second-first != 5 {
		t.Fatalf("serialization delay = %d, want 5 flits", second-first)
	}
}

func TestFlitHopAccounting(t *testing.T) {
	m := New(DefaultConfig())
	m.SendData(0, 3, 0) // 2 hops x 5 flits
	m.SendCtrl(1, 0, 0) // 1 hop x 1 flit
	st := m.Stats()
	if st.FlitHops != 11 {
		t.Fatalf("flit-hops = %d, want 11", st.FlitHops)
	}
	if st.Packets != 2 {
		t.Fatalf("packets = %d", st.Packets)
	}
}

func TestMonotonicTime(t *testing.T) {
	// Property: arrival >= departure for any sequence of sends issued in
	// nondecreasing time order.
	f := func(pairs []uint8) bool {
		m := New(DefaultConfig())
		now := uint64(0)
		for _, p := range pairs {
			src, dst := int(p%4), int(p/4)%4
			arr := m.SendData(src, dst, now)
			if arr < now {
				return false
			}
			now += uint64(p % 3)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReset(t *testing.T) {
	m := New(DefaultConfig())
	m.SendData(0, 3, 0)
	m.Reset()
	if m.Stats() != (Stats{}) {
		t.Fatal("Reset must clear stats")
	}
	// Link reservations must be cleared too: a fresh packet at t=0 sees
	// the uncontended latency again.
	if got := m.SendData(0, 1, 0); got != 4+4 {
		t.Fatalf("post-reset latency = %d", got)
	}
}

// TestSendAllocatesNothing pins the per-packet path allocation-free: routes
// are walked in place and link reservations live in a flat table.
func TestSendAllocatesNothing(t *testing.T) {
	m := New(DefaultConfig())
	var now uint64
	allocs := testing.AllocsPerRun(100, func() {
		for src := 0; src < 4; src++ {
			for dst := 0; dst < 4; dst++ {
				now = m.SendData(dst, src, m.SendCtrl(src, dst, now))
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("SendCtrl/SendData allocate %v times per round", allocs)
	}
}

// TestSendMatchesRoute checks the in-place walk against Route on a larger
// mesh: an uncontended packet's latency and flit-hops follow the route's
// hop count, a second packet on the same route queues behind the first, and
// one on the reverse route does not (opposite directions are distinct
// links).
func TestSendMatchesRoute(t *testing.T) {
	cfg := Config{Width: 4, Height: 3, RouterCycles: 3, LinkCycles: 1, CtrlFlits: 1, DataFlits: 5}
	for src := 0; src < cfg.Nodes(); src++ {
		for dst := 0; dst < cfg.Nodes(); dst++ {
			if src == dst {
				continue
			}
			m := New(cfg)
			hops := uint64(m.Hops(src, dst))
			want := 100 + hops*4 + 4
			if arr := m.SendData(src, dst, 100); arr != want {
				t.Fatalf("%d->%d: arrival %d, want %d for %d hops", src, dst, arr, want, hops)
			}
			if got := m.Stats().FlitHops; got != 5*hops {
				t.Fatalf("%d->%d: flit-hops %d for %d hops", src, dst, got, hops)
			}
			if back := m.SendData(dst, src, 100); back != want {
				t.Fatalf("%d->%d: reverse packet arrives at %d, want uncontended %d", dst, src, back, want)
			}
			if again := m.SendData(src, dst, 100); again != want+5 {
				t.Fatalf("%d->%d: contending arrival %d, want %d", src, dst, again, want+5)
			}
		}
	}
}
