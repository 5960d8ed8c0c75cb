package mem

import (
	"fmt"
	"sync"
)

// MaxOrder is the largest block the buddy allocator manages: 2^10 pages =
// 4 MiB, matching Linux's MAX_ORDER-1 = 10 on x86.
const MaxOrder = 10

// Zone is one NUMA node's buddy allocator. It owns the frame range
// [start, end) and maintains per-order free lists with buddy coalescing.
// The implementation is a faithful miniature of the Linux page allocator:
// blocks split downward on allocation and merge with their buddy upward on
// free, and FlagBuddy on the block head detects double frees.
type Zone struct {
	mem   *Memory
	node  int
	start PFN
	end   PFN

	mu sync.Mutex
	// freeLists[o] heads an intrusive singly linked list of free order-o
	// blocks. The link is stored in the head page struct's Private field
	// (as Linux stores the lru linkage in the free struct page); 0 ends a
	// list, which is safe because frame 0 is reserved.
	freeLists [MaxOrder + 1]PFN
	// [freshLo, freshHi) is the run of aligned MaxOrder blocks that no
	// allocation has reached. They are on no list, so their page structs
	// stay unbuilt; popFree(MaxOrder) hands them out highest first once
	// the MaxOrder list is empty.
	freshLo, freshHi PFN
	nfree            int64 // free frames, fresh ones included
}

// newZone seeds the free lists greedily with the largest aligned blocks,
// except that the run of MaxOrder blocks stays fresh. popFree hands fresh
// blocks out highest first, and only once the MaxOrder list is empty: the
// order the list itself would give had the run been pushed in ascending
// order like the other blocks, since every block freed back at MaxOrder is
// pushed above it. Coalescing never looks inside a fresh block, because the
// buddy of a block below MaxOrder lies in the same MaxOrder block.
func newZone(m *Memory, node int, start, end PFN) *Zone {
	z := &Zone{mem: m, node: node, start: start, end: end}
	pfn := start
	for pfn < end {
		order := MaxOrder
		for order > 0 {
			if pfn&((1<<order)-1) == 0 && pfn+(1<<order) <= end {
				break
			}
			order--
		}
		if order == MaxOrder {
			z.freshLo = pfn
			z.freshHi = pfn + (end-pfn)&^(1<<MaxOrder-1)
			z.nfree += int64(z.freshHi - z.freshLo)
			pfn = z.freshHi
			continue
		}
		z.pushFree(pfn, order)
		pfn += 1 << order
	}
	return z
}

func (z *Zone) pushFree(pfn PFN, order int) {
	p := z.mem.PageOf(pfn)
	p.SetFlags(FlagBuddy)
	p.Order = uint8(order)
	p.Private = uint64(z.freeLists[order])
	z.freeLists[order] = pfn
	z.nfree += 1 << order
}

// popFree removes and returns the first block of the given order, or false.
func (z *Zone) popFree(order int) (PFN, bool) {
	pfn := z.freeLists[order]
	if pfn == 0 {
		if order < MaxOrder || z.freshHi == z.freshLo {
			return 0, false
		}
		z.freshHi -= 1 << MaxOrder
		z.nfree -= 1 << MaxOrder
		return z.freshHi, true
	}
	p := z.mem.PageOf(pfn)
	z.freeLists[order] = PFN(p.Private)
	z.nfree -= 1 << order
	p.ClearFlags(FlagBuddy)
	p.Private = 0
	return pfn, true
}

// removeFree unlinks a specific block (used when merging with a buddy).
func (z *Zone) removeFree(pfn PFN, order int) bool {
	prev := PFN(0)
	cur := z.freeLists[order]
	for cur != 0 {
		if cur == pfn {
			p := z.mem.PageOf(cur)
			if prev == 0 {
				z.freeLists[order] = PFN(p.Private)
			} else {
				z.mem.PageOf(prev).Private = p.Private
			}
			z.nfree -= 1 << order
			p.ClearFlags(FlagBuddy)
			p.Private = 0
			return true
		}
		prev = cur
		cur = PFN(z.mem.PageOf(cur).Private)
	}
	return false
}

// alloc returns a 2^order frame block, splitting larger blocks as needed.
func (z *Zone) alloc(order int) (PFN, bool) {
	z.mu.Lock()
	defer z.mu.Unlock()
	for o := order; o <= MaxOrder; o++ {
		pfn, ok := z.popFree(o)
		if !ok {
			continue
		}
		// Split the block down to the requested order, returning the
		// upper halves to their free lists.
		for o > order {
			o--
			buddy := pfn + (1 << o)
			z.pushFree(buddy, o)
		}
		return pfn, true
	}
	return 0, false
}

// free returns a block and coalesces it with free buddies.
func (z *Zone) free(pfn PFN, order int) {
	if pfn < z.start || pfn+(1<<order) > z.end {
		panic(fmt.Sprintf("mem: freeing pfn %d order %d outside zone %d [%d,%d)", pfn, order, z.node, z.start, z.end))
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	for order < MaxOrder {
		buddy := pfn ^ (1 << order)
		if buddy < z.start || buddy+(1<<order) > z.end {
			break
		}
		bp := z.mem.PageOf(buddy)
		if !bp.Has(FlagBuddy) || int(bp.Order) != order {
			break
		}
		if !z.removeFree(buddy, order) {
			break
		}
		if buddy < pfn {
			pfn = buddy
		}
		order++
	}
	z.pushFree(pfn, order)
}

// freePages reports the number of free frames in the zone.
func (z *Zone) freePages() int64 {
	z.mu.Lock()
	defer z.mu.Unlock()
	return z.nfree
}
