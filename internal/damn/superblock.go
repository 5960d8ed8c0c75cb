package damn

import (
	"fmt"

	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/iova"
	"github.com/asplos18/damn/internal/mem"
)

// Dense-huge-IOVA variant (Table 3 of the paper): instead of mapping each
// 64 KiB chunk with 4 KiB PTEs at a metadata-encoded IOVA, DAMN allocates
// 2 MiB physically contiguous superblocks, maps each with a single huge
// IOVA page from a *dense* region, and carves it into chunks. One IOTLB
// entry then covers 32 chunks, which is what recovers the 6.5 % of
// throughput the sparse encoding costs (Table 3, "huge iova pages + dense
// iova range").
//
// The paper's prototype cannot free these IOVAs (no metadata in them) and
// uses the variant for analysis only; here chunk recycling still works
// because chunk identity lives in the page-struct registry, but the
// shrinker skips huge chunks.

const superblockOrder = 9 // 512 pages = 2 MiB

// newChunkFromSuperblock returns a chunk carved from this cache's spare
// list, allocating and huge-mapping a new superblock when empty.
func (c *dmaCache) newChunkFromSuperblock(x Ctx) (*chunk, error) {
	d := c.d
	if n := len(c.depotSpare); n > 0 {
		ch := c.depotSpare[n-1]
		c.depotSpare = c.depotSpare[:n-1]
		return ch, nil
	}
	// Reserve a dense 2 MiB IOVA slot (bit 47 set so dma_unmap still
	// recognises the buffer as DAMN's, but no identity encoding).
	base := iova.DAMNBit | iommu.IOVA(d.denseNext)
	d.denseNext += mem.HugePageSize

	head, err := d.mem.AllocPages(superblockOrder, c.key.node)
	if err != nil {
		return nil, err
	}
	pa := head.PFN().Addr()
	d.mem.Zero(pa, mem.HugePageSize)
	if err := d.iommu.MapHuge(c.key.dev, base, pa, c.key.rights); err != nil {
		d.mem.FreePages(head, superblockOrder)
		return nil, fmt.Errorf("damn: huge map failed: %w", err)
	}
	chunkOrder := log2(d.cfg.ChunkPages)
	heads := d.mem.SplitCompound(head, superblockOrder, chunkOrder)
	chunks := make([]*chunk, 0, len(heads))
	for i, h := range heads {
		ch := &chunk{
			head:  h,
			pa:    h.PFN().Addr(),
			iova:  base + iommu.IOVA(i*d.ChunkBytes()),
			cache: c,
			huge:  true,
		}
		d.registerChunk(ch)
		chunks = append(chunks, ch)
	}
	c.depotSpare = append(c.depotSpare, chunks[1:]...)
	return chunks[0], nil
}
