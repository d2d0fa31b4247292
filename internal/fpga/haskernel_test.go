package fpga

import (
	"testing"

	"xartrek/internal/simtime"
	"xartrek/internal/xclbin"
)

// TestHasKernelAgreesWithCU pins HasKernel to CU's success in every
// region state: empty, configuring, configured without the kernel,
// configured with one CU, and configured with replicated CUs.
func TestHasKernelAgreesWithCU(t *testing.T) {
	check := func(t *testing.T, f *Fabric, kernels ...string) {
		t.Helper()
		for _, k := range kernels {
			_, err := f.CU(k)
			if got, want := f.HasKernel(k), err == nil; got != want {
				t.Fatalf("HasKernel(%q) = %v, CU error = %v", k, got, err)
			}
			// A second query after CU memoized the lookup must agree too.
			if got, want := f.HasKernel(k), err == nil; got != want {
				t.Fatalf("HasKernel(%q) after CU = %v, want %v", k, got, want)
			}
		}
	}
	t.Run("empty", func(t *testing.T) {
		f := NewFabric(simtime.New(), xclbin.AlveoU50())
		check(t, f, "k1", "absent", "")
	})
	t.Run("configuring", func(t *testing.T) {
		f := NewFabric(simtime.New(), xclbin.AlveoU50())
		if err := f.Program(testImage(t, "k1", "k2"), nil); err != nil {
			t.Fatal(err)
		}
		check(t, f, "k1", "k2", "absent")
	})
	t.Run("configured", func(t *testing.T) {
		f := configure(t, simtime.New(), testImage(t, "k1", "k2"))
		check(t, f, "absent", "k1", "absent", "k2", "", "k1")
		if !f.HasKernel("k1") || f.HasKernel("absent") {
			t.Fatal("configured fabric misreports residency")
		}
	})
	t.Run("replicated", func(t *testing.T) {
		f := configure(t, simtime.New(), replicatedImage(t, 3))
		check(t, f, "k", "absent", "k")
		if !f.HasKernel("k") {
			t.Fatal("replicated kernel not resident")
		}
	})
	t.Run("reprogramming", func(t *testing.T) {
		sim := simtime.New()
		f := configure(t, sim, testImage(t, "k1"))
		if err := f.Program(testImage(t, "k2"), nil); err != nil {
			t.Fatal(err)
		}
		check(t, f, "k1", "k2")
		sim.Run()
		check(t, f, "k1", "k2")
		if f.HasKernel("k1") || !f.HasKernel("k2") {
			t.Fatal("reprogrammed fabric misreports residency")
		}
	})
}

// TestHasKernelMissDoesNotAllocate pins the placement hot path: every
// request asks each card whether its kernel is resident, and a miss on
// a configured card must not build CU's wrapped error.
func TestHasKernelMissDoesNotAllocate(t *testing.T) {
	f := configure(t, simtime.New(), testImage(t, "k1", "k2"))
	if allocs := testing.AllocsPerRun(100, func() {
		if f.HasKernel("absent") {
			t.Fatal("absent kernel reported resident")
		}
	}); allocs != 0 {
		t.Fatalf("HasKernel miss allocates %.1f times, want 0", allocs)
	}
}
