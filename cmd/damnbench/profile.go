package main

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles starts a host CPU profile into cpuPath and opens memPath for
// an allocation profile; an empty path skips that profile. Both files are
// created up front so a bad path fails before the run. The returned stop
// function ends the CPU profile and writes the allocation profile (every
// sampled allocation since start; pprof's -sample_index=inuse_space shows
// the live heap instead). Call it before the process exits.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu, mem *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			if cpu != nil {
				pprof.StopCPUProfile()
				cpu.Close()
			}
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if mem != nil {
			runtime.GC() // bring the in-use statistics up to date
			errs = append(errs, pprof.Lookup("allocs").WriteTo(mem, 0), mem.Close())
		}
		return errors.Join(errs...)
	}, nil
}
