package workloads

import (
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
)

// Graph500Config models Fig 2's co-runner: BFS over a 2^20-vertex graph
// with average degree 256, running on a set of cores and hammering the
// shared memory controller. One "iteration" is one full BFS.
type Graph500Config struct {
	Machine *testbed.Machine
	// Cores the instance runs on (8 in the paper, split across sockets).
	Cores []int
	// Vertices defines the problem size (2^20), at graph500Degree edges
	// per vertex.
	Vertices int
}

// graph500Degree is the graph's average degree.
const graph500Degree int = 256

// Graph500Instance is one running BFS loop.
type Graph500Instance struct {
	cfg        Graph500Config
	Iterations int
	IterTimes  []sim.Time
	iterStart  sim.Time
	remaining  []int64 // edges left per core for the current iteration
	stopped    bool
}

// edgeQuantum is how many edges one scheduling slice processes; small
// enough to interleave with networking on the memory controller.
const edgeQuantum = 50_000

// StartGraph500 launches the BFS loop; it runs until Stop.
func StartGraph500(cfg Graph500Config) *Graph500Instance {
	if cfg.Vertices == 0 {
		cfg.Vertices = 1 << 20
	}
	g := &Graph500Instance{cfg: cfg}
	g.startIteration()
	return g
}

// Stop halts the loop at the next slice boundary.
func (g *Graph500Instance) Stop() { g.stopped = true }

// MeanIterTime returns the average completed-iteration time.
func (g *Graph500Instance) MeanIterTime() sim.Time {
	if len(g.IterTimes) == 0 {
		return 0
	}
	var sum sim.Time
	for _, t := range g.IterTimes {
		sum += t
	}
	return sum / sim.Time(len(g.IterTimes))
}

func (g *Graph500Instance) startIteration() {
	if g.stopped {
		return
	}
	g.iterStart = g.cfg.Machine.Sim.Now()
	totalEdges := int64(g.cfg.Vertices) * int64(graph500Degree)
	per := totalEdges / int64(len(g.cfg.Cores))
	g.remaining = make([]int64, len(g.cfg.Cores))
	for i := range g.remaining {
		g.remaining[i] = per
	}
	for i := range g.cfg.Cores {
		g.slice(i)
	}
}

// slice schedules one quantum of edge processing on worker i. A small
// scheduling jitter keeps the workers from marching in lockstep (real cores
// drift apart; perfectly synchronized bursts would make the shared
// memory-controller estimate oscillate).
func (g *Graph500Instance) slice(i int) {
	if g.stopped {
		return
	}
	ma := g.cfg.Machine
	core := ma.Cores[g.cfg.Cores[i]]
	jitter := sim.Time(ma.Sim.Rand().Intn(20)) * sim.Microsecond
	ma.Sim.After(jitter, func() {
		g.sliceNow(i, core)
	})
}

func (g *Graph500Instance) sliceNow(i int, core *sim.Core) {
	if g.stopped {
		return
	}
	ma := g.cfg.Machine
	core.Submit(false, func(t *sim.Task) {
		if g.stopped {
			return
		}
		edges := g.remaining[i]
		if edges > edgeQuantum {
			edges = edgeQuantum
		}
		if edges <= 0 {
			return
		}
		m := ma.Model
		// BFS is latency-bound: every edge is a dependent random DRAM
		// access. Its own bandwidth use is modest, but the access
		// latency inflates when the controller is busy serving the
		// networking traffic — superlinearly, as queueing does. This is
		// the 1.44× of Fig 2b: shadow buffers' copy traffic raises the
		// utilization the BFS's loads wait behind.
		rho := ma.MemBW.Utilization()
		latency := m.Graph500LatencyCycles * (1 + 3.5*rho*rho)
		t.Charge(float64(edges) * (m.Graph500EdgeCycles + latency))
		ma.MemBW.Use(t.Now(), float64(edges)*m.Graph500BytesPerEdge)
		g.remaining[i] -= edges
		if g.remaining[i] > 0 {
			g.slice(i)
			return
		}
		// This worker finished; the last one closes the iteration.
		for _, r := range g.remaining {
			if r > 0 {
				return
			}
		}
		g.Iterations++
		g.IterTimes = append(g.IterTimes, ma.Sim.Now()-g.iterStart)
		g.startIteration()
	})
}
