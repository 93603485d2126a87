package vecmath

// useAVX2 routes matMulABTBlock's 2 × 4 tiles through dotTile2x4 and
// dotTile2x4Out, matMulBlock's and matMulATBBlock's 16-wide column blocks
// through axpyTile16, and AddTo, Scale, ReLUInPlace and the max pass of
// Softmax and LogSumExp through their four-lane tiles. It is set once, here, from CPUID;
// only tests clear it, to run the Go loops.
var useAVX2 = cpuHasAVX2()

// hasFMA reports CPUID leaf 1 ECX FMA (bit 12). With useAVX2 it is
// exactly the condition under which math.Exp takes the FMA branch of
// math/exp_amd64.s (AVX, FMA and OS YMM support), the branch expTile
// copies; see useExpTile.
var hasFMA = cpuHasFMA()

// dotTile2x4 sets out[4r+q] = a_r·b_q over the first n elements, for r in
// {0, 1} and q in {0, 1, 2, 3}, each accumulated as matMulABTBlock's Go tile
// does it: four lane chains over k in steps of 4, summed ((l0+l1)+l2)+l3.
// n must be a multiple of 4; the caller adds the scalar tail. It needs AVX2
// (useAVX2).
//
//go:noescape
func dotTile2x4(a0, a1, b0, b1, b2, b3 *float64, n int, out *[8]float64)

// dotTile2x4Out is dotTile2x4 for a contiguous quad of output columns
// [j, j+4) with no scalar tail (n is the whole reduction length): it sums
// the same chains, then stores rows o0 and o1 itself through rowOut's
// epilogue (o0.bias nil: the plain store), as rowOut.put would store each
// element. It needs AVX2 (useAVX2).
//
// iam:noalloc
//
//go:noescape
func dotTile2x4Out(a0, a1, b0, b1, b2, b3 *float64, n, j int, o0, o1 *rowOut)

// axpyTile16 adds a[k*as]·b[k*bs+j] into dst[j] for j in [0, 16), for k
// ascending over [0, n), skipping every k whose a[k*as] is ±0 as
// matMulBlock's and matMulATBBlock's Go loops do. Each dst[j] is one chain
// of separately rounded products and adds, the Go loops' chain, held in a
// register across all n steps. It needs AVX2 (useAVX2).
//
//go:noescape
func axpyTile16(dst, a *float64, as int, b *float64, bs, n int)

// expTile runs the quads of x from the start: each lane's d = x[i] − m,
// clamped to d ≤ 0, goes through the FMA branch of math/exp_amd64.s four
// lanes wide, giving math.Exp(d) bit for bit; the four results are stored
// to dst[i:i+4] (unless dst is empty) and added to z in ascending order.
// It stops before the first quad with a lane below −708 or NaN (there
// math.Exp leaves that branch's normal range) and at len(x)&^3, and
// returns how many elements it ran and the running sum. It needs AVX2 and
// FMA (useExpTile).
//
// iam:noalloc
//
//go:noescape
func expTile(dst, x []float64, m, z float64) (n int, sum float64)

// maxTile returns the maximum of x[:len(x)&^3], len(x) ≥ 4, as four lane
// maxima started at x[0] and then joined lane by lane, each step keeping
// the running value unless the new one is greater (so a NaN x[0] gives NaN
// and a later NaN is ignored, as in Max; between +0 and −0 either may
// win). It needs AVX2 (useAVX2).
//
// iam:noalloc
//
//go:noescape
func maxTile(x []float64) float64

// addTile adds x[i] into dst[i] for i < len(dst)&^3, len(x) ≥ len(dst).
// It needs AVX2 (useAVX2).
//
// iam:noalloc
//
//go:noescape
func addTile(dst, x []float64)

// reluTile sets x[i] = ReLU(x[i]) for i < len(x)&^3. It needs AVX2
// (useAVX2).
//
// iam:noalloc
//
//go:noescape
func reluTile(x []float64)

// scaleTile multiplies x[i] by s for i < len(x)&^3. It needs AVX2
// (useAVX2).
//
// iam:noalloc
//
//go:noescape
func scaleTile(x []float64, s float64)

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

// cpuHasFMA reports CPUID leaf 1 ECX FMA (bit 12); whether the OS saves YMM
// state is cpuHasAVX2's part of the check.
func cpuHasFMA() bool {
	_, _, ecx1, _ := cpuid(1, 0)
	return ecx1&(1<<12) != 0
}
