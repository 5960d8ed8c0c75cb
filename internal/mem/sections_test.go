package mem

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// newEagerMemory builds a Memory whose zones are seeded the way New seeded
// them before the fresh range existed: every block, the MaxOrder run
// included, pushed to its list in ascending pfn order. It is the reference
// model that lazy seeding must match step for step. pushFree rewrites each
// head it pushes, so the blocks New already pushed carry only the eager
// zone's links.
func newEagerMemory(t testing.TB, bytes int64, nodes int) *Memory {
	t.Helper()
	m := newTestMemory(t, bytes, nodes)
	for n, lazy := range m.zones {
		z := &Zone{mem: m, node: n, start: lazy.start, end: lazy.end}
		for pfn := z.start; pfn < z.end; {
			order := MaxOrder
			for order > 0 {
				if pfn&((1<<order)-1) == 0 && pfn+(1<<order) <= z.end {
					break
				}
				order--
			}
			z.pushFree(pfn, order)
			pfn += 1 << order
		}
		m.zones[n] = z
	}
	return m
}

// builtSections counts the page-struct sections m has built.
func builtSections(m *Memory) int {
	n := 0
	for i := range m.sections {
		if m.sections[i].Load() != nil {
			n++
		}
	}
	return n
}

// TestLazySeedMatchesEagerBuddy replays random AllocPages, FreePages and
// SplitCompound sequences on a lazily seeded Memory and on its eagerly
// seeded twin, and requires the same PFN from every allocation and the same
// free count after every step. 18 MiB is not a multiple of a MaxOrder
// block, so its zones have unaligned blocks on both sides of the fresh run;
// 1 MiB has no fresh run at all.
func TestLazySeedMatchesEagerBuddy(t *testing.T) {
	for _, size := range []int64{1 << 20, 16 << 20, 18 << 20, 256 << 20} {
		for _, nodes := range []int{1, 2} {
			t.Run(fmt.Sprintf("%dMiB/%dnode", size>>20, nodes), func(t *testing.T) {
				lazy := newTestMemory(t, size, nodes)
				eager := newEagerMemory(t, size, nodes)
				type block struct {
					lazy, eager *Page
					order       int
				}
				var live []block
				drop := func(i int) {
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				alloc := func(step, order, node int) bool {
					lp, lerr := lazy.AllocPages(order, node)
					ep, eerr := eager.AllocPages(order, node)
					if (lerr == nil) != (eerr == nil) {
						t.Fatalf("step %d: order-%d alloc on node %d: lazy err %v, eager err %v", step, order, node, lerr, eerr)
					}
					if lerr != nil {
						return false
					}
					if lp.PFN() != ep.PFN() {
						t.Fatalf("step %d: order-%d alloc on node %d: lazy pfn %d, eager pfn %d", step, order, node, lp.PFN(), ep.PFN())
					}
					live = append(live, block{lp, ep, order})
					return true
				}
				initial := eager.TotalFreePages()
				rng := rand.New(rand.NewSource(size + int64(nodes)))
				for step := 0; step < 4000; step++ {
					switch r := rng.Intn(10); {
					case r < 5 || len(live) == 0:
						alloc(step, rng.Intn(MaxOrder+1), rng.Intn(nodes))
					case r < 9:
						i := rng.Intn(len(live))
						b := live[i]
						lazy.FreePages(b.lazy, b.order)
						eager.FreePages(b.eager, b.order)
						drop(i)
					default:
						i := rng.Intn(len(live))
						b := live[i]
						if b.order == 0 {
							break
						}
						sub := rng.Intn(b.order)
						lh := lazy.SplitCompound(b.lazy, b.order, sub)
						eh := eager.SplitCompound(b.eager, b.order, sub)
						drop(i)
						for j := range lh {
							if lh[j].PFN() != eh[j].PFN() {
								t.Fatalf("step %d: split head %d: lazy pfn %d, eager pfn %d", step, j, lh[j].PFN(), eh[j].PFN())
							}
							live = append(live, block{lh[j], eh[j], sub})
						}
					}
					if l, e := lazy.TotalFreePages(), eager.TotalFreePages(); l != e {
						t.Fatalf("step %d: lazy has %d free frames, eager %d", step, l, e)
					}
				}
				// Free everything, then drain each node at MaxOrder and
				// then order 0: the lists' whole order must match too.
				for len(live) > 0 {
					b := live[len(live)-1]
					lazy.FreePages(b.lazy, b.order)
					eager.FreePages(b.eager, b.order)
					drop(len(live) - 1)
				}
				if l, e := lazy.TotalFreePages(), eager.TotalFreePages(); l != initial || e != initial {
					t.Fatalf("after freeing all: lazy %d, eager %d free frames, want %d", l, e, initial)
				}
				for node := 0; node < nodes; node++ {
					for alloc(-1, MaxOrder, node) {
					}
				}
				for alloc(-1, 0, 0) {
				}
				if got := lazy.TotalFreePages(); got != 0 {
					t.Fatalf("drained memory has %d free frames", got)
				}
			})
		}
	}
}

// TestLazySectionsBuiltOnFirstUse: New builds only frame 0's section, and
// an allocation builds at most the one section it lands in.
func TestLazySectionsBuiltOnFirstUse(t *testing.T) {
	m := newTestMemory(t, 1<<30, 2)
	defer m.Release()
	if got := builtSections(m); got != 1 {
		t.Fatalf("fresh 1 GiB memory built %d sections, want 1", got)
	}
	for node := 0; node < 2; node++ {
		before := builtSections(m)
		p, err := m.AllocPages(0, node)
		if err != nil {
			t.Fatal(err)
		}
		if got := builtSections(m); got > before+1 {
			t.Errorf("order-0 alloc on node %d built %d sections, want at most 1", node, got-before)
		}
		if p.Node != node {
			t.Errorf("page of pfn %d is on node %d, want %d", p.PFN(), p.Node, node)
		}
	}
}

// TestLazyPageOfPastEndPanics: the frame one past the end of RAM has no
// page struct, whether it would open a new section or sit in the built
// tail of the last one.
func TestLazyPageOfPastEndPanics(t *testing.T) {
	for _, size := range []int64{4 << 20, 18 << 20} {
		m := newTestMemory(t, size, 1)
		last := m.PageOf(PFN(m.NumPages() - 1))
		if last.PFN() != PFN(m.NumPages()-1) {
			t.Fatalf("%d MiB: last page struct has pfn %d", size>>20, last.PFN())
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d MiB: PageOf(%d) did not panic", size>>20, m.NumPages())
				}
			}()
			m.PageOf(PFN(m.NumPages()))
		}()
	}
}

// TestLazyConcurrentSectionBuild: goroutines race PageOf against
// AllocPages into one unbuilt section, and every caller must end up with
// the one published page struct per frame, with the allocations' compound
// linkage on it. Run it under -race.
func TestLazyConcurrentSectionBuild(t *testing.T) {
	const workers = 8
	m := newTestMemory(t, 16<<20, 2)
	// Node 1 owns frames [2048, 4096), two fresh MaxOrder blocks, and its
	// first allocation takes the higher one.
	const base PFN = 3072
	if m.sections[base>>sectionShift].Load() != nil {
		t.Fatal("node 1's top section is built before any allocation")
	}
	start := make(chan struct{})
	seen := make([][]*Page, workers)
	heads := make([]*Page, workers)
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if g%2 == 0 {
				p, err := m.AllocPages(4, 1)
				if err != nil {
					t.Error(err)
					return
				}
				heads[g] = p
			}
			seen[g] = make([]*Page, sectionPages)
			for i := range seen[g] {
				seen[g][i] = m.PageOf(base + PFN(i))
			}
		}()
	}
	close(start)
	wg.Wait()
	for g, pages := range seen {
		for i, p := range pages {
			if want := m.PageOf(base + PFN(i)); p != want {
				t.Fatalf("goroutine %d got a different page struct for pfn %d", g, base+PFN(i))
			}
			if p.PFN() != base+PFN(i) || p.Node != 1 {
				t.Fatalf("page struct for pfn %d says pfn %d, node %d", base+PFN(i), p.PFN(), p.Node)
			}
		}
	}
	for _, h := range heads {
		if h == nil {
			continue
		}
		if h != m.PageOf(h.PFN()) || h.PFN()>>sectionShift != base>>sectionShift {
			t.Fatalf("allocation at pfn %d is not in the shared section", h.PFN())
		}
		if !h.IsCompoundHead() || m.Head(m.PageOf(h.PFN()+15)) != h {
			t.Fatalf("compound at pfn %d lost its linkage", h.PFN())
		}
	}
}
