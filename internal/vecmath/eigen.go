package vecmath

import "math"

// SymEigenvalues returns the eigenvalues of the symmetric matrix a using the
// cyclic Jacobi rotation method. a must be square and symmetric; it is not
// modified. The returned eigenvalues are in no particular order.
//
// Jacobi iteration is O(n³) per sweep but our matrices are tiny (one row per
// dataset column), so simplicity wins over LAPACK-grade sophistication.
func SymEigenvalues(a *Matrix) []float64 {
	if a.Rows != a.Cols {
		panic("vecmath: SymEigenvalues requires a square matrix")
	}
	n := a.Rows
	w := a.Clone()
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		// Sum of squares of off-diagonal elements.
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := w.At(i, j)
				off += float64(v * v)
			}
		}
		if off < 1e-22 {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-15 {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+float64(theta*theta)))
				} else {
					t = -1 / (-theta + math.Sqrt(1+float64(theta*theta)))
				}
				c := 1 / math.Sqrt(1+float64(t*t))
				s := t * c
				// Apply the rotation G(p,q,θ)ᵀ · W · G(p,q,θ).
				for k := 0; k < n; k++ {
					wkp := w.At(k, p)
					wkq := w.At(k, q)
					w.Set(k, p, float64(c*wkp)-float64(s*wkq))
					w.Set(k, q, float64(s*wkp)+float64(c*wkq))
				}
				for k := 0; k < n; k++ {
					wpk := w.At(p, k)
					wqk := w.At(q, k)
					w.Set(p, k, float64(c*wpk)-float64(s*wqk))
					w.Set(q, k, float64(s*wpk)+float64(c*wqk))
				}
			}
		}
	}
	ev := make([]float64, n)
	for i := 0; i < n; i++ {
		ev[i] = w.At(i, i)
	}
	return ev
}
