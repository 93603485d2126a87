// Package noallocfixture is the escape fixture of cmd/noalloccheck's tests:
// the same heap allocation inside an unsuppressed iam:noalloc function,
// inside a suppressed one, and outside any annotated function.
package noallocfixture

type buf struct{ b [64]byte }

// Leak is annotated and its allocation is not suppressed: a violation.
//
// iam:noalloc
func Leak() *buf {
	return &buf{}
}

// Excused is annotated and its allocation carries a reasoned suppression.
//
// iam:noalloc
func Excused() *buf {
	//lint:ignore noalloc cold path, kept to exercise suppression
	return &buf{}
}

// Free is not annotated, so its allocation is outside every region.
func Free() *buf {
	return &buf{}
}
