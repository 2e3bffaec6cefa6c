// Package profile backs the commands' -cpuprofile and -memprofile flags
// with the standard library's runtime/pprof. Read a written profile with
// `go tool pprof -top <binary> <file>`.
package profile

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile written to cpuPath when it is non-empty, and
// returns a stop function that ends it and, when memPath is non-empty,
// writes a heap profile there after a collection. The caller runs stop once,
// when the command's work is done.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		cpu, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
		}
		if memPath == "" {
			return nil
		}
		return writeHeap(memPath)
	}, nil
}

// writeHeap writes the heap profile, up to date as of a fresh collection.
func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memory profile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("memory profile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("memory profile: %w", err)
	}
	return nil
}
