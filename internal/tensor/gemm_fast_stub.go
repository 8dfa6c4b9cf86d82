//go:build !amd64 || noasm

package tensor

// Pure-Go builds (non-amd64, or the noasm tag) have no fast kernels:
// fastSupported is constant false, useFast() never returns true, and
// these stubs exist only to satisfy the dispatch call sites. They are
// unreachable.

var fastSupported = false

var cpuFeatures = ""

func unreachableFast() {
	panic("tensor: fast kernels called in a build without them")
}

func fastGemm(dst, a, b []float32, m, k, n int)         { unreachableFast() }
func fastGemmTA(dst, a, b []float32, k, m, n int)       { unreachableFast() }
func fastGemmTASerial(dst, a, b []float32, k, m, n int) { unreachableFast() }
func fastGemmTB(dst, a, b []float32, m, k, n int)       { unreachableFast() }

func fastTile1(orow, arow, pb []float32, offs []int, jw int) { unreachableFast() }

func convSampleDWAxpy(chunk, x, dyi, patches []float32, g *convGeom, outC int) { unreachableFast() }

func fastDot4(a, b0, b1, b2, b3 []float32) (s0, s1, s2, s3 float32) {
	unreachableFast()
	return
}

func fastDot(a, b []float32) float32 {
	unreachableFast()
	return 0
}
