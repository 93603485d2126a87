package vecmath

// PackedBlockDot is the one reduction behind the sampling forward's first
// layer: internal/nn tabulates PackedBlockDot(W₀[o, block c], embed_c[code])
// for every (column c, code, unit o), and a sampling forward sums those
// entries per unit in column order. Reduction order is part of the contract:
// four accumulator lanes over k+=4, combined left-to-right, then a scalar
// tail — the per-(output, b-row) chain of matMulABTBlock, so a single block
// reduces exactly as MatMulABT reduces it.
//
// iam:noalloc
func PackedBlockDot(w, x []float64) float64 {
	n := len(x)
	n4 := n - n%4
	var s0, s1, s2, s3 float64
	for k := 0; k < n4; k += 4 {
		s0 += float64(x[k] * w[k])
		s1 += float64(x[k+1] * w[k+1])
		s2 += float64(x[k+2] * w[k+2])
		s3 += float64(x[k+3] * w[k+3])
	}
	s := s0 + s1 + s2 + s3
	for k := n4; k < n; k++ {
		s += float64(x[k] * w[k])
	}
	return s
}
