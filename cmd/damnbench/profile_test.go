package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartProfilesWritesBoth(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := startProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("%s: missing or empty profile (err %v)", p, err)
		}
	}
}

// A bad allocation-profile path fails before the run and must not leave the
// CPU profile running.
func TestStartProfilesBadPathStopsCPUProfile(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	if _, err := startProfiles(cpu, filepath.Join(dir, "missing", "mem.pprof")); err == nil {
		t.Fatal("unwritable -memprofile path accepted")
	}
	stop, err := startProfiles(cpu, "")
	if err != nil {
		t.Fatalf("CPU profile still running after the failed start: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
