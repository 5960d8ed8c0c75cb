package faults

import (
	"testing"

	"github.com/asplos18/damn/internal/sim"
)

// TestNilInjectorIsInert: every method must be callable on a nil injector —
// that is the whole zero-cost-when-off contract.
func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	for _, k := range Kinds {
		if inj.Should(k) {
			t.Fatalf("nil injector fired %s", k)
		}
	}
	if d := inj.Duration(LinkReorder, sim.Microsecond, 2*sim.Microsecond); d != 0 {
		t.Fatalf("nil injector drew duration %v", d)
	}
	inj.ObserveRecovery(ComplLoss, sim.Microsecond)
	inj.SetStats(nil)
	if inj.Injected(LinkDrop) != 0 || inj.InjectedTotal() != 0 {
		t.Fatal("nil injector counted faults")
	}
	if inj.Counts() != nil {
		t.Fatal("nil injector returned counts")
	}
	if inj.ScheduleDigest() != 0 {
		t.Fatal("nil injector has a digest")
	}
}

// drive visits every kind n times and returns the decision trace.
func drive(inj *Injector, n int) []bool {
	var trace []bool
	for i := 0; i < n; i++ {
		for _, k := range Kinds {
			fired := inj.Should(k)
			trace = append(trace, fired)
			if fired && (k == LinkReorder || k == ComplDelay) {
				inj.Duration(k, sim.Microsecond, 100*sim.Microsecond)
			}
		}
	}
	return trace
}

// TestSeedReplay: the same seed replays the identical decision sequence,
// counts and digest.
func TestSeedReplay(t *testing.T) {
	cfg := Config{Seed: 99, Rates: UniformRates(0.1)}
	a, b := New(cfg), New(cfg)
	ta, tb := drive(a, 500), drive(b, 500)
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("decision %d diverged", i)
		}
	}
	if a.ScheduleDigest() != b.ScheduleDigest() {
		t.Fatalf("digests diverged: %#x vs %#x", a.ScheduleDigest(), b.ScheduleDigest())
	}
	if a.InjectedTotal() != b.InjectedTotal() || a.InjectedTotal() == 0 {
		t.Fatalf("totals: %d vs %d", a.InjectedTotal(), b.InjectedTotal())
	}
}

// TestSeedsDiverge: different seeds must give different schedules.
func TestSeedsDiverge(t *testing.T) {
	a := New(Config{Seed: 1, Rates: UniformRates(0.1)})
	b := New(Config{Seed: 2, Rates: UniformRates(0.1)})
	drive(a, 500)
	drive(b, 500)
	if a.ScheduleDigest() == b.ScheduleDigest() {
		t.Fatalf("seeds 1 and 2 share digest %#x", a.ScheduleDigest())
	}
}

// TestStreamsIndependent: changing one kind's rate must not shift another
// kind's schedule — each kind draws from its own stream, and rate-zero
// kinds draw nothing.
func TestStreamsIndependent(t *testing.T) {
	ratesA := UniformRates(0.1)
	ratesB := UniformRates(0.1)
	ratesB[DMAFault] = 0 // turning a kind off...
	a := New(Config{Seed: 7, Rates: ratesA})
	b := New(Config{Seed: 7, Rates: ratesB})
	const n = 2000
	for i := 0; i < n; i++ {
		fa := a.Should(AllocFail)
		fb := b.Should(AllocFail)
		if fa != fb {
			t.Fatalf("alloc_fail decision %d shifted when dma_fault was disabled", i)
		}
		a.Should(DMAFault) // ...must leave the other kinds' streams alone
		b.Should(DMAFault)
	}
	if a.Injected(AllocFail) != b.Injected(AllocFail) {
		t.Fatalf("alloc_fail counts diverged: %d vs %d", a.Injected(AllocFail), b.Injected(AllocFail))
	}
	if b.Injected(DMAFault) != 0 {
		t.Fatal("rate-zero kind fired")
	}
}

// TestRateZeroNeverFires and rate-one always fires.
func TestRateExtremes(t *testing.T) {
	inj := New(Config{Seed: 3, Rates: map[Kind]float64{LinkDrop: 1.0}})
	for i := 0; i < 100; i++ {
		if !inj.Should(LinkDrop) {
			t.Fatal("rate 1.0 did not fire")
		}
		if inj.Should(LinkCorrupt) {
			t.Fatal("absent kind fired")
		}
	}
	if inj.Injected(LinkDrop) != 100 {
		t.Fatalf("count %d", inj.Injected(LinkDrop))
	}
}

// TestDurationBounds: drawn durations stay inside [min, max] and are
// deterministic per seed.
func TestDurationBounds(t *testing.T) {
	a := New(Config{Seed: 5, Rates: UniformRates(1)})
	b := New(Config{Seed: 5, Rates: UniformRates(1)})
	min, max := 2*sim.Microsecond, 30*sim.Microsecond
	for i := 0; i < 1000; i++ {
		da := a.Duration(LinkReorder, min, max)
		db := b.Duration(LinkReorder, min, max)
		if da != db {
			t.Fatalf("draw %d diverged: %v vs %v", i, da, db)
		}
		if da < min || da > max {
			t.Fatalf("draw %d out of bounds: %v", i, da)
		}
	}
	if d := a.Duration(ComplDelay, max, max); d != max {
		t.Fatalf("degenerate range drew %v", d)
	}
}
