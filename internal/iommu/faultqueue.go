package iommu

// VT-d hardware does not raise a Go error at the device: a blocked DMA
// aborts silently on the bus and the IOMMU deposits a *fault record* into a
// bounded ring the OS reads later (primary fault logging). FaultQueue
// models that ring: Translate pushes a record for every blocked DMA, and
// when the ring is full the record is lost and only an overflow counter
// advances — exactly the information loss real hardware exhibits under a
// fault storm.

// FaultRecordDepth is the ring capacity. VT-d exposes a small number of
// fault-recording registers backed by a software ring; 64 keeps the OS's
// view bounded the way hardware does.
const FaultRecordDepth = 64

// FaultRecord is one entry of the fault-record queue.
type FaultRecord struct {
	Fault
	// Injected marks records produced by the fault plane rather than a
	// genuinely missing/insufficient translation.
	Injected bool
}

// FaultQueue is the bounded VT-d-style fault-record ring.
type FaultQueue struct {
	buf   [FaultRecordDepth]FaultRecord
	head  int
	tail  int
	count int

	Recorded  uint64 // records successfully deposited
	Overflows uint64 // records lost to a full ring

	// Per-source-device attribution: the supervisor needs to pin a fault
	// storm on one fault domain, and a full ring must still say *whose*
	// records it is losing (the source-id field of a VT-d fault record).
	// Dense slices indexed by device id; a fault storm hammers these, so
	// the hot path is an indexed add, not a map probe.
	recordedBy  []uint64
	overflowsBy []uint64
	// probesBy counts, per source device, blocked DMAs whose target IOVA
	// decodes to a *different* device's range — neighbour probes, the
	// cross-tenant attack signature (see IOMMU.SetProbeClassifier).
	probesBy []uint64
}

// push deposits a record and reports whether it was kept: when the ring is
// full the record is dropped and only the overflow is counted.
func (fq *FaultQueue) push(rec FaultRecord) bool {
	if fq.count == FaultRecordDepth {
		fq.Overflows++
		return false
	}
	fq.buf[fq.tail] = rec
	fq.tail = (fq.tail + 1) % FaultRecordDepth
	fq.count++
	fq.Recorded++
	return true
}

// Pending reports deposited, not-yet-read records.
func (fq *FaultQueue) Pending() int { return fq.count }

// drain pops every pending record in FIFO order.
func (fq *FaultQueue) drain() []FaultRecord {
	if fq.count == 0 {
		return nil
	}
	out := make([]FaultRecord, 0, fq.count)
	for fq.count > 0 {
		out = append(out, fq.buf[fq.head])
		fq.head = (fq.head + 1) % FaultRecordDepth
		fq.count--
	}
	return out
}

// ReadFaultRecords is the OS side of primary fault logging: it pops and
// returns every pending record, clearing the ring the way the fault-status
// register write-back does.
func (u *IOMMU) ReadFaultRecords() []FaultRecord { return u.fq.drain() }

// PendingFaultRecords reports deposited, not-yet-read records.
func (u *IOMMU) PendingFaultRecords() int { return u.fq.Pending() }

// FaultQueueStats reports (recorded, overflowed) record counts.
func (u *IOMMU) FaultQueueStats() (recorded, overflowed uint64) {
	return u.fq.Recorded, u.fq.Overflows
}

// DeviceFaultStats reports (recorded, overflowed, probesBlocked) fault
// counts attributed to one source device. This is what lets the supervisor,
// the tenant manager and the stats snapshot pin a storm on a fault domain
// instead of the machine; probesBlocked isolates the subset of blocked DMAs
// that aimed at a sibling device's IOVA range (neighbour probes).
func (u *IOMMU) DeviceFaultStats(dev int) (recorded, overflowed, probesBlocked uint64) {
	if dev >= 0 && dev < len(u.fq.recordedBy) {
		recorded = u.fq.recordedBy[dev]
	}
	if dev >= 0 && dev < len(u.fq.overflowsBy) {
		overflowed = u.fq.overflowsBy[dev]
	}
	if dev >= 0 && dev < len(u.fq.probesBy) {
		probesBlocked = u.fq.probesBy[dev]
	}
	return recorded, overflowed, probesBlocked
}
