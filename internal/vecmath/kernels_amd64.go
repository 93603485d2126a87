package vecmath

// useAVX2 routes matMulABTBlock's 2 × 4 tiles through dotTile2x4, and
// matMulBlock's and matMulATBBlock's 16-wide column blocks through
// axpyTile16. It is set once, here, from CPUID; only tests clear it, to run
// the Go tiles.
var useAVX2 = cpuHasAVX2()

// dotTile2x4 sets out[4r+q] = a_r·b_q over the first n elements, for r in
// {0, 1} and q in {0, 1, 2, 3}, each accumulated as matMulABTBlock's Go tile
// does it: four lane chains over k in steps of 4, summed ((l0+l1)+l2)+l3.
// n must be a multiple of 4; the caller adds the scalar tail. It needs AVX2
// (useAVX2).
//
//go:noescape
func dotTile2x4(a0, a1, b0, b1, b2, b3 *float64, n int, out *[8]float64)

// axpyTile16 adds a[k*as]·b[k*bs+j] into dst[j] for j in [0, 16), for k
// ascending over [0, n), skipping every k whose a[k*as] is ±0 as
// matMulBlock's and matMulATBBlock's Go loops do. Each dst[j] is one chain
// of separately rounded products and adds, the Go loops' chain, held in a
// register across all n steps. It needs AVX2 (useAVX2).
//
//go:noescape
func axpyTile16(dst, a *float64, as int, b *float64, bs, n int)

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0, the register states the OS saves.
func xgetbv() (eax uint32)

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves YMM state:
// CPUID leaf 1 ECX OSXSAVE (bit 27) and AVX (bit 28), XCR0 SSE and AVX
// state (bits 1 and 2), and CPUID leaf 7 EBX AVX2 (bit 5).
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 || xgetbv()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}
