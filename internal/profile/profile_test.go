package profile

import (
	"os"
	"path/filepath"
	"testing"
)

var sink float64

func TestStartWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1e6; i++ {
		sink += float64(i) * 1e-9
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", filepath.Base(p))
		}
	}
}

func TestStartWithoutPathsIsANoOp(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestStartReportsUnwritableCPUPath(t *testing.T) {
	if _, err := Start(filepath.Join(t.TempDir(), "missing", "cpu.pprof"), ""); err == nil {
		t.Fatal("an unwritable CPU profile path must fail")
	}
}
