package iommu

import (
	"reflect"
	"testing"

	"github.com/asplos18/damn/internal/mem"
	"github.com/asplos18/damn/internal/stats"
)

func newQueueFixture(t *testing.T) (*IOMMU, *mem.Memory) {
	t.Helper()
	m, err := mem.New(mem.Config{TotalBytes: 32 << 20, NUMANodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	u := New(m)
	u.AttachDevice(1)
	return u, m
}

// batchCommands returns n commands alternating between domain
// invalidations of devices 1 and 2 and one-page range invalidations of
// device 1 that never touch each other.
func batchCommands(n int) []Command {
	cmds := make([]Command, n)
	for i := range cmds {
		if i%2 == 0 {
			cmds[i] = Command{Kind: InvDomain, Dev: 1 + i%4/2}
		} else {
			cmds[i] = Command{Kind: InvRange, Dev: 1, Base: IOVA(i) << 13, Size: mem.PageSize}
		}
	}
	return cmds
}

// TestInvalidateBatchCounts: one Invalidate of a batch counts, observes and
// executes what submitting each command to the ring and then draining it
// did. The wanted values are what that submit-then-drain sequence recorded
// for the same batches; a batch of 300 wraps the 256-entry ring once.
func TestInvalidateBatchCounts(t *testing.T) {
	for _, c := range []struct {
		n         int
		wraps     uint64
		depth     stats.HistogramSnapshot
		drainHist stats.HistogramSnapshot
	}{
		{
			n:         1,
			depth:     stats.HistogramSnapshot{Count: 1, Buckets: []stats.HistogramBucket{{Le: 1, Count: 1}}},
			drainHist: stats.HistogramSnapshot{Count: 1, Sum: 1, Min: 1, Max: 1, Buckets: []stats.HistogramBucket{{Le: 2, Count: 1}}},
		},
		{
			n: 3,
			depth: stats.HistogramSnapshot{Count: 3, Sum: 3, Max: 2,
				Buckets: []stats.HistogramBucket{{Le: 1, Count: 1}, {Le: 2, Count: 1}, {Le: 4, Count: 1}}},
			drainHist: stats.HistogramSnapshot{Count: 1, Sum: 3, Min: 3, Max: 3, Buckets: []stats.HistogramBucket{{Le: 4, Count: 1}}},
		},
		{
			n:     300,
			wraps: 1,
			depth: stats.HistogramSnapshot{Count: 300, Sum: 33586, Max: 255,
				Buckets: []stats.HistogramBucket{{Le: 1, Count: 2}, {Le: 2, Count: 2}, {Le: 4, Count: 4}, {Le: 8, Count: 8},
					{Le: 16, Count: 16}, {Le: 32, Count: 32}, {Le: 64, Count: 44}, {Le: 128, Count: 64}, {Le: 256, Count: 128}}},
			drainHist: stats.HistogramSnapshot{Count: 2, Sum: 300, Min: 44, Max: 256,
				Buckets: []stats.HistogramBucket{{Le: 64, Count: 1}, {Le: 512, Count: 1}}},
		},
	} {
		u, _ := newQueueFixture(t)
		u.AttachDevice(2)
		reg := stats.NewRegistry()
		u.SetStats(reg)
		if err := u.InvQ().Invalidate(nil, 0, batchCommands(c.n)...); err != nil {
			t.Fatalf("batch of %d: %v", c.n, err)
		}
		snap := reg.Snapshot()
		for name, want := range map[string]uint64{
			"iommu/invq_submitted":       uint64(c.n),
			"iommu/invq_processed":       uint64(c.n),
			"iommu/invq_wrap_drains":     c.wraps,
			"iommu/invq_rejected":        0,
			"iommu/iotlb_flush_commands": uint64(c.n),
		} {
			if got := snap.Counter(name); got != want {
				t.Errorf("batch of %d: %s = %d, want %d", c.n, name, got, want)
			}
		}
		if got := snap.Histograms["iommu/invq_depth"]; !reflect.DeepEqual(got, c.depth) {
			t.Errorf("batch of %d: invq_depth = %+v, want %+v", c.n, got, c.depth)
		}
		if got := snap.Histograms["iommu/invq_drain_batch"]; !reflect.DeepEqual(got, c.drainHist) {
			t.Errorf("batch of %d: invq_drain_batch = %+v, want %+v", c.n, got, c.drainHist)
		}
	}
}

func TestInvQueueWrapDrains(t *testing.T) {
	u, _ := newQueueFixture(t)
	// Overfill the cyclic buffer: the producer must drain rather than
	// drop or corrupt commands.
	cmds := make([]Command, InvQueueDepth+10)
	for i := range cmds {
		cmds[i] = Command{Kind: InvDomain, Dev: 1}
	}
	if err := u.InvQ().Invalidate(nil, 0, cmds...); err != nil {
		t.Fatal(err)
	}
	if u.InvQ().Submitted != InvQueueDepth+10 {
		t.Fatalf("Submitted = %d", u.InvQ().Submitted)
	}
	if u.InvQ().Processed != InvQueueDepth+10 {
		t.Fatalf("Processed = %d", u.InvQ().Processed)
	}
	if u.TLB().FlushCommands != InvQueueDepth+10 {
		t.Fatalf("FlushCommands = %d", u.TLB().FlushCommands)
	}
}

// TestInvQueueRejectsBadRange: a range of size 0 rejects its whole batch
// before anything is written: no command of it executes or counts, and
// invq_rejected counts the batch once.
func TestInvQueueRejectsBadRange(t *testing.T) {
	u, m := newQueueFixture(t)
	reg := stats.NewRegistry()
	u.SetStats(reg)
	if err := u.Map(1, 0x4000, allocPA(t, m, 0), mem.PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Translate(1, 0x4000, true); err != nil { // prime the IOTLB
		t.Fatal(err)
	}
	err := u.InvQ().Invalidate(nil, 0,
		Command{Kind: InvDomain, Dev: 1},
		Command{Kind: InvRange, Dev: 1, Base: 0x1000, Size: 0},
		Command{Kind: InvRange, Dev: 1, Base: 0x4000, Size: mem.PageSize})
	if err == nil {
		t.Fatal("zero-size range accepted")
	}
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"iommu/invq_rejected":        1,
		"iommu/invq_submitted":       0,
		"iommu/invq_processed":       0,
		"iommu/iotlb_flush_commands": 0,
		"iommu/iotlb_invalidations":  0,
	} {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if n := snap.Histograms["iommu/invq_depth"].Count + snap.Histograms["iommu/invq_drain_batch"].Count; n != 0 {
		t.Errorf("a rejected batch made %d queue observations", n)
	}
	hits := u.TLB().Hits
	if _, err := u.Translate(1, 0x4000, true); err != nil || u.TLB().Hits != hits+1 {
		t.Fatalf("a rejected batch dropped an IOTLB entry: err %v", err)
	}
}

func TestInvalidateRangeIndexedMatchesSweep(t *testing.T) {
	// The set-indexed fast path must drop exactly what the sweep would.
	u, m := newQueueFixture(t)
	p, _ := m.AllocPages(4, 0) // 16 pages
	base := p.PFN().Addr()
	if err := u.Map(1, 0x100000, base, 16*mem.PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		u.Translate(1, 0x100000+IOVA(i*mem.PageSize), true)
	}
	// Invalidate the middle 4 pages via the indexed path (<=64 pages).
	u.TLB().InvalidateRange(1, 0x100000+4*mem.PageSize, 4*mem.PageSize)
	for i := 0; i < 16; i++ {
		miss0 := u.TLB().Misses
		u.Translate(1, 0x100000+IOVA(i*mem.PageSize), true)
		missed := u.TLB().Misses > miss0
		inRange := i >= 4 && i < 8
		if inRange && !missed {
			t.Fatalf("page %d should have been invalidated", i)
		}
		if !inRange && missed {
			t.Fatalf("page %d was invalidated but is outside the range", i)
		}
	}
}
