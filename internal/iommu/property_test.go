package iommu

import (
	"math/rand"
	"testing"

	"github.com/asplos18/damn/internal/mem"
)

// TestTranslationMatchesReferenceModel drives random map/unmap/invalidate/
// translate sequences and checks the IOMMU (page tables + IOTLB + queue)
// against a trivial reference map, including the one permitted divergence:
// a stale IOTLB hit between unmap and invalidation.
func TestTranslationMatchesReferenceModel(t *testing.T) {
	m, err := mem.New(mem.Config{TotalBytes: 64 << 20, NUMANodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	u := New(m)
	u.AttachDevice(1)
	rng := rand.New(rand.NewSource(99))

	type mapping struct {
		pa   mem.PhysAddr
		perm Perm
	}
	ref := map[IOVA]mapping{}   // live page-table state
	stale := map[IOVA]mapping{} // unmapped but possibly IOTLB-cached
	var freePages []*mem.Page

	randIOVA := func() IOVA { return IOVA(rng.Intn(4096)) << mem.PageShift }
	perms := []Perm{PermRead, PermWrite, PermRW}

	for step := 0; step < 20000; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2: // map
			v := randIOVA()
			if _, ok := ref[v]; ok {
				continue
			}
			p, err := m.AllocPages(0, 0)
			if err != nil {
				continue
			}
			perm := perms[rng.Intn(3)]
			if err := u.Map(1, v, p.PFN().Addr(), mem.PageSize, perm); err != nil {
				t.Fatalf("step %d: map: %v", step, err)
			}
			ref[v] = mapping{p.PFN().Addr(), perm}
			delete(stale, v)
			freePages = append(freePages, p)
		case 3, 4: // unmap (no invalidate yet)
			for v, mp := range ref {
				if err := u.Unmap(1, v, mem.PageSize); err != nil {
					t.Fatalf("step %d: unmap: %v", step, err)
				}
				stale[v] = mp
				delete(ref, v)
				break
			}
		case 5: // drain an invalidation
			if err := u.InvQ().Invalidate(nil, 0, Command{Kind: InvDomain, Dev: 1}); err != nil {
				t.Fatal(err)
			}
			stale = map[IOVA]mapping{}
		default: // translate
			v := randIOVA()
			write := rng.Intn(2) == 0
			got, err := u.Translate(1, v+IOVA(rng.Intn(mem.PageSize)), write)
			need := PermRead
			if write {
				need = PermWrite
			}
			live, isLive := ref[v]
			st, isStale := stale[v]
			switch {
			case isLive && live.perm&need != 0:
				if err != nil {
					t.Fatalf("step %d: live mapping faulted: %v", step, err)
				}
				if got>>mem.PageShift != mem.PhysAddr(live.pa)>>mem.PageShift {
					t.Fatalf("step %d: wrong frame: %#x vs %#x", step, got, live.pa)
				}
			case isLive: // wrong permission
				if err == nil {
					t.Fatalf("step %d: permission violation allowed", step)
				}
			case isStale && st.perm&need != 0:
				// May hit (stale IOTLB) or fault (entry evicted or
				// never cached) — both are legitimate hardware
				// behaviours. But if it hits, it must be the old
				// frame.
				if err == nil && got>>mem.PageShift != mem.PhysAddr(st.pa)>>mem.PageShift {
					t.Fatalf("step %d: stale hit to wrong frame", step)
				}
			default:
				if err == nil {
					t.Fatalf("step %d: unmapped IOVA %#x translated", step, v)
				}
			}
		}
	}
	_ = freePages
}
