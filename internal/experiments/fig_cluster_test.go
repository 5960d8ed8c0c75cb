package experiments

import (
	"reflect"
	"strings"
	"testing"

	"github.com/asplos18/damn/internal/testbed"
)

// TestClusterFigureShape: one row per scheme, every row moving traffic on
// both the incast and the memcached leg, and the render carrying every
// column the figure promises.
func TestClusterFigureShape(t *testing.T) {
	skipInShort(t)
	rows, err := Cluster(Options{Quick: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(testbed.AllSchemes) {
		t.Fatalf("got %d rows, want %d", len(rows), len(testbed.AllSchemes))
	}
	for i, r := range rows {
		if r.Scheme != string(testbed.AllSchemes[i]) {
			t.Errorf("row %d is %s, want %s", i, r.Scheme, testbed.AllSchemes[i])
		}
		if r.Incast.Gbps <= 0 || r.Incast.P99 <= 0 {
			t.Errorf("%s: incast moved nothing: %+v", r.Scheme, r.Incast)
		}
		if r.MC.KOps <= 0 || r.MC.P99 <= 0 {
			t.Errorf("%s: memcached cluster served nothing: %+v", r.Scheme, r.MC)
		}
		if r.Incast.Epochs == 0 {
			t.Errorf("%s: topology ran zero epochs", r.Scheme)
		}
	}
	out := RenderCluster(rows)
	for _, want := range []string{"incast Gb/s", "incast p99", "mc kops/s", "mc p99", "damn", "strict"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestClusterFigureParallelMatchesSerial is the figure-level identity bar:
// the cluster rows — and the rendered text — must be byte-identical
// whether the scheme jobs run serially or on 4 runner workers, and exactly
// replayable.
func TestClusterFigureParallelMatchesSerial(t *testing.T) {
	skipInShort(t)
	serial, err := Cluster(Options{Quick: true, Seed: 5, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Cluster(Options{Quick: true, Seed: 5, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	again, err := Cluster(Options{Quick: true, Seed: 5, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("parallel cluster rows diverge from serial:\nserial   %+v\nparallel %+v", serial, par)
	}
	if !reflect.DeepEqual(par, again) {
		t.Errorf("two parallel cluster runs diverge:\n%+v\n%+v", par, again)
	}
	if RenderCluster(serial) != RenderCluster(par) {
		t.Error("rendered cluster text differs between serial and parallel")
	}
}
