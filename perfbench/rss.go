package main

import (
	"bytes"
	"os"
	"strconv"
	"syscall"
	"time"
)

// rssPoll is how often the sampler reads the resident set size. RSS moves
// with machine builds and GC cycles that take tens of milliseconds, so a
// 2 ms poll sees every plateau an iteration reaches.
const rssPoll = 2 * time.Millisecond

// rssSampler tracks the peak resident set size between start and stop by
// polling /proc/self/statm. Where that file is missing it falls back to the
// process-lifetime peak from getrusage.
type rssSampler struct {
	stopc chan struct{}
	done  chan uint64
}

func startRSS() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan uint64, 1)}
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		close(s.done)
		return s
	}
	go func() {
		defer f.Close()
		buf := make([]byte, 128)
		page := uint64(os.Getpagesize())
		var peak uint64
		tick := time.NewTicker(rssPoll)
		defer tick.Stop()
		for {
			if rss := readStatmRSS(f, buf) * page; rss > peak {
				peak = rss
			}
			select {
			case <-s.stopc:
				s.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak in bytes.
func (s *rssSampler) stop() uint64 {
	close(s.stopc)
	if peak, ok := <-s.done; ok && peak > 0 {
		return peak
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return uint64(ru.Maxrss) << 10 // Linux reports KiB
}

// readStatmRSS returns the resident page count: statm's second field.
func readStatmRSS(f *os.File, buf []byte) uint64 {
	n, err := f.ReadAt(buf, 0)
	if n == 0 && err != nil {
		return 0
	}
	fields := bytes.Fields(buf[:n])
	if len(fields) < 2 {
		return 0
	}
	v, err := strconv.ParseUint(string(fields[1]), 10, 64)
	if err != nil {
		return 0
	}
	return v
}
