package experiments

import (
	"reflect"
	"testing"

	"github.com/asplos18/damn/internal/testbed"
)

// TestBypassParallelMatchesSerial extends the determinism contract to the
// kernel-bypass figure: same seed, any worker count, repeated runs — the
// rows and the rendered table must be byte-identical. The serial rows also
// pin the figure's safety verdicts, which are measured by attack probes and
// must replay exactly.
func TestBypassParallelMatchesSerial(t *testing.T) {
	serial, err := Bypass(Options{Quick: true, Seed: 1, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Bypass(Options{Quick: true, Seed: 1, Parallel: 5})
	if err != nil {
		t.Fatal(err)
	}
	again, err := Bypass(Options{Quick: true, Seed: 1, Parallel: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("parallel bypass rows diverge from serial:\nserial   %+v\nparallel %+v", serial, par)
	}
	if !reflect.DeepEqual(par, again) {
		t.Errorf("two parallel bypass runs diverge:\n%+v\n%+v", par, again)
	}
	if RenderBypass(serial) != RenderBypass(par) {
		t.Error("rendered bypass figure differs between serial and parallel")
	}

	byScheme := map[string]BypassRow{}
	for _, r := range serial {
		byScheme[r.Scheme] = r
	}
	raw := byScheme[string(testbed.SchemeBypassRaw)]
	prot := byScheme[string(testbed.SchemeBypassProt)]
	if raw.Subpage || raw.NoWindow {
		t.Errorf("bypass-raw measured safe (subpage %v, no-window %v); passthrough protects nothing", raw.Subpage, raw.NoWindow)
	}
	if !prot.Subpage {
		t.Error("bypass-prot pool confinement did not hold: probe outside the registered pool landed")
	}
	if prot.NoWindow {
		t.Error("bypass-prot measured window-free; permanent mappings cannot close the TOCTTOU window")
	}
	for _, scheme := range []string{string(testbed.SchemeOff), string(testbed.SchemeDAMN)} {
		if byScheme[scheme].IdleBurnCores != 0 {
			t.Errorf("%s shows idle burn %.2f cores; interrupt drivers spin nowhere", scheme, byScheme[scheme].IdleBurnCores)
		}
	}
}

// TestBypassAndScalingRunUnderFaults: -faults applies to every figure, so
// the bypass and scaling figures complete under injection even though
// injected DMA faults refuse some used-ring publishes (their fault-free
// gate), and the bypass figure's throughput and idle-burn gates still hold.
func TestBypassAndScalingRunUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two figures")
	}
	opts := Options{Quick: true, Seed: 1, Parallel: 1, FaultRate: 0.002, FaultSeed: 1}
	if _, err := Bypass(opts); err != nil {
		t.Errorf("bypass under faults: %v", err)
	}
	if _, err := Scaling(opts); err != nil {
		t.Errorf("scaling under faults: %v", err)
	}
}
