package tensor

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestAVX2HostTakesSIMDPath cross-checks the CPUID/XGETBV detection against
// the kernel's own report of the CPU flags. Every other kernel test passes
// on the pure-Go fallback too, so without this check an AVX2 host that
// silently fell back would stay green while running the slow path.
func TestAVX2HostTakesSIMDPath(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flag listing to cross-check against: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		if avx2 := slices.Contains(strings.Fields(flags), "avx2"); avx2 != useAVX2 {
			t.Fatalf("CPU flags list avx2=%v but the GEMM kernels run with useAVX2=%v", avx2, useAVX2)
		}
		return
	}
	t.Skip("CPU flag listing has no flags line")
}
