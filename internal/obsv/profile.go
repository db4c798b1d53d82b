package obsv

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
)

// This file backs the CLIs' -profile flag family: a comma-separated list of
// profile kinds started before the workload and stopped (with files flushed)
// after it. Kinds:
//
//	cpu   CPU profile            -> <base>.cpu.pprof   (go tool pprof)
//	mem   heap allocation profile-> <base>.mem.pprof   (go tool pprof)
//	trace runtime execution trace-> <base>.trace.out   (go tool trace)

// StartProfiles starts the requested profile kinds ("cpu", "mem", "trace",
// comma-separated; empty starts nothing) writing to files derived from base.
// It returns a stop function that ends the profiles and flushes the files;
// the caller must invoke it exactly once. An unknown kind or an unwritable
// file is reported before any workload runs.
func StartProfiles(spec, base string) (stop func() error, err error) {
	stop = func() error { return nil }
	if spec == "" {
		return stop, nil
	}
	if base == "" {
		base = "profile"
	}
	var stops []func() error
	cleanup := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			_ = stops[i]()
		}
	}
	for _, kind := range strings.Split(spec, ",") {
		kind = strings.TrimSpace(kind)
		switch kind {
		case "":
		case "cpu":
			f, err := os.Create(base + ".cpu.pprof")
			if err != nil {
				cleanup()
				return nil, err
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				_ = f.Close()
				cleanup()
				return nil, err
			}
			stops = append(stops, func() error {
				pprof.StopCPUProfile()
				return f.Close()
			})
		case "mem":
			stops = append(stops, func() error {
				f, err := os.Create(base + ".mem.pprof")
				if err != nil {
					return err
				}
				runtime.GC() // fold transient garbage out of the heap picture
				if err := pprof.WriteHeapProfile(f); err != nil {
					_ = f.Close()
					return err
				}
				return f.Close()
			})
		case "trace":
			f, err := os.Create(base + ".trace.out")
			if err != nil {
				cleanup()
				return nil, err
			}
			if err := trace.Start(f); err != nil {
				_ = f.Close()
				cleanup()
				return nil, err
			}
			stops = append(stops, func() error {
				trace.Stop()
				return f.Close()
			})
		default:
			cleanup()
			return nil, fmt.Errorf("obsv: unknown profile kind %q (want cpu, mem, or trace)", kind)
		}
	}
	return func() error {
		var first error
		for i := len(stops) - 1; i >= 0; i-- {
			if err := stops[i](); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}
