// Package prof backs the -cpuprofile and -memprofile flags of the
// command-line drivers with runtime/pprof, so any experiment or gated
// driver can be profiled without a harness of its own:
//
//	osnt-bench -e e14 -cpuprofile cpu.pprof -memprofile mem.pprof
//	go tool pprof -top cpu.pprof
package prof

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile written to cpuPath when it is non-empty,
// and returns the function that ends the session: it stops the CPU
// profile and, when memPath is non-empty, writes a heap profile taken
// after a GC. Stop reports every error from writing or closing either
// file; Start reports a failure to create the CPU profile.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	var sink *errWriter
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		sink = &errWriter{w: cpu}
		if err := pprof.StartCPUProfile(sink); err != nil {
			cpu.Close() // the start error is the one to report
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			if sink.err != nil {
				errs = append(errs, fmt.Errorf("cpu profile: %w", sink.err))
			}
			if err := cpu.Close(); err != nil {
				errs = append(errs, fmt.Errorf("cpu profile: %w", err))
			}
		}
		if memPath != "" {
			if err := writeHeap(memPath); err != nil {
				errs = append(errs, fmt.Errorf("heap profile: %w", err))
			}
		}
		return errors.Join(errs...)
	}, nil
}

// writeHeap writes a heap profile of the live objects after a GC.
func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

// errWriter keeps the first write error, which runtime/pprof drops for
// the CPU profile it streams in the background.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	n, err := e.w.Write(p)
	if err != nil && e.err == nil {
		e.err = err
	}
	return n, err
}
