package tensor

import (
	"fmt"
	"math"
)

// Int8 symmetric quantization and the integer GEMM kernel.
//
// The quantized representation is symmetric with zero-point 0:
//
//	q = clamp(round(x / scale), -127, 127)     scale = maxabs / 127
//
// so q == 0 exactly when a padded or zero input element is quantized —
// the conv kernels can treat zero padding as the 0 byte with no
// correction term. Products accumulate in int32, which is exact for
// every reachable magnitude (|q| <= 127, so |sum| <= 16129·k; int32
// holds that up to k ≈ 133 000, far past any layer in this repo).
//
// Integer addition is associative, so unlike the float kernels the
// int8 family needs no ULP contract: the AVX2 variant (quant_fast.go)
// is bit-identical to the scalar kernels here, and sharding output
// rows across workers cannot change any output element. The AVX2
// kernels are therefore chosen by CPU support alone, never by the
// numerics tier. The tests in quant_test.go pin scalar/AVX2 identity
// and worker invariance as exact equality.

// QuantClamp is the symmetric int8 clamp bound: quantized values live
// in [-QuantClamp, QuantClamp] so +x and -x always map to ±q.
const QuantClamp = 127

// MaxAbs returns the largest absolute value in src (0 for empty src).
// NaNs are ignored; ±Inf saturate to the largest finite magnitude seen
// elsewhere being irrelevant — callers quantizing trained weights and
// calibrated activations never see non-finite values, and ScaleFor
// guards the degenerate all-zero case.
func MaxAbs(src []float32) float32 {
	var m float32
	for _, v := range src {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// ScaleFor returns the symmetric quantization scale for a tensor whose
// largest magnitude is maxabs. An all-zero tensor gets scale 1 so the
// quantized plane is all zeros and dequantization is exact.
func ScaleFor(maxabs float32) float32 {
	if maxabs <= 0 || math.IsInf(float64(maxabs), 0) || math.IsNaN(float64(maxabs)) {
		return 1
	}
	return maxabs / QuantClamp
}

// QuantizeLinear quantizes src into dst with a single symmetric scale:
// dst[i] = clamp(round(src[i]/scale), ±QuantClamp). The rounding is
// round-half-away-from-zero in float64, which is exact and therefore
// identical on every platform. len(dst) must equal len(src); scale
// must be positive.
func QuantizeLinear(dst []int8, src []float32, scale float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: QuantizeLinear length mismatch %d vs %d", len(dst), len(src)))
	}
	if !(scale > 0) {
		panic("tensor: QuantizeLinear requires a positive scale")
	}
	inv := 1 / float64(scale)
	for i, v := range src {
		q := math.Round(float64(v) * inv)
		if q > QuantClamp {
			q = QuantClamp
		} else if q < -QuantClamp {
			q = -QuantClamp
		}
		dst[i] = int8(q)
	}
}

// QuantizeRows quantizes a row-major rows×cols matrix with one
// symmetric scale per row (per output channel for conv weights, per
// output neuron for linear weights), writing the scales into scales.
// len(dst) and len(src) must be rows*cols and len(scales) rows.
func QuantizeRows(dst []int8, scales []float32, src []float32, rows, cols int) {
	if len(src) != rows*cols || len(dst) != rows*cols || len(scales) != rows {
		panic(fmt.Sprintf("tensor: QuantizeRows shape mismatch rows=%d cols=%d dst=%d src=%d scales=%d",
			rows, cols, len(dst), len(src), len(scales)))
	}
	for r := 0; r < rows; r++ {
		row := src[r*cols : (r+1)*cols]
		s := ScaleFor(MaxAbs(row))
		scales[r] = s
		QuantizeLinear(dst[r*cols:(r+1)*cols], row, s)
	}
}

// dotS8Ref is the scalar int8 dot kernel (and the oracle the AVX2
// variant must match bit for bit).
func dotS8Ref(a, b []int8) int32 {
	var s int32
	p := 0
	for ; p+4 <= len(a); p += 4 {
		s += int32(a[p])*int32(b[p]) + int32(a[p+1])*int32(b[p+1]) +
			int32(a[p+2])*int32(b[p+2]) + int32(a[p+3])*int32(b[p+3])
	}
	for ; p < len(a); p++ {
		s += int32(a[p]) * int32(b[p])
	}
	return s
}

// GemmS8TB computes dst = A·Bᵀ over raw row-major int8 slices with
// int32 accumulators: dst m×n, a m×k, b n×k. This is the one product
// shape the quantized forward path needs — linear layers are
// y = x·Wᵀ directly, and conv becomes the same shape once patches are
// gathered patch-major (Im2RowS8) — so, like the float GemmTB, both
// operands' rows are already contiguous and no packing (and therefore
// no allocation) is needed. Output rows are sharded across Workers()
// goroutines above matMulShardFlops; integer accumulation makes the
// result independent of the shard bounds by construction.
func GemmS8TB(dst []int32, a, b []int8, m, k, n int) {
	if len(a) != m*k || len(b) != n*k || len(dst) != m*n {
		panic(fmt.Sprintf("tensor: GemmS8TB shape mismatch m=%d k=%d n=%d a=%d b=%d dst=%d",
			m, k, n, len(a), len(b), len(dst)))
	}
	if m == 0 || n == 0 {
		return
	}
	if m >= 2 && m*k*n >= matMulShardFlops && Workers() > 1 {
		ParallelFor(m, func(_, lo, hi int) {
			gemmS8TBRows(dst, a, b, k, n, lo, hi, fastSupported)
		})
		return
	}
	gemmS8TBRows(dst, a, b, k, n, 0, m, fastSupported)
}

// gemmS8TBRows computes output rows [lo, hi) of dst = A·Bᵀ in 1×4
// register tiles within B-row blocks of gemmTBJBlock — the gemmTBRows
// schedule with integer dot kernels.
func gemmS8TBRows(od []int32, ad, bd []int8, k, n, lo, hi int, fast bool) {
	for j0 := 0; j0 < n; j0 += gemmTBJBlock {
		jb := n - j0
		if jb > gemmTBJBlock {
			jb = gemmTBJBlock
		}
		for i := lo; i < hi; i++ {
			arow := ad[i*k : i*k+k]
			orow := od[i*n : i*n+n]
			j := j0
			for ; j+4 <= j0+jb; j += 4 {
				b0 := bd[j*k : j*k+k]
				b1 := bd[(j+1)*k : (j+1)*k+k]
				b2 := bd[(j+2)*k : (j+2)*k+k]
				b3 := bd[(j+3)*k : (j+3)*k+k]
				if fast {
					orow[j], orow[j+1], orow[j+2], orow[j+3] = fastDot4S8(arow, b0, b1, b2, b3)
				} else {
					var s0, s1, s2, s3 int32
					p := 0
					for ; p+4 <= k; p += 4 {
						a0, a1, a2, a3 := int32(arow[p]), int32(arow[p+1]), int32(arow[p+2]), int32(arow[p+3])
						s0 += a0*int32(b0[p]) + a1*int32(b0[p+1]) + a2*int32(b0[p+2]) + a3*int32(b0[p+3])
						s1 += a0*int32(b1[p]) + a1*int32(b1[p+1]) + a2*int32(b1[p+2]) + a3*int32(b1[p+3])
						s2 += a0*int32(b2[p]) + a1*int32(b2[p+1]) + a2*int32(b2[p+2]) + a3*int32(b2[p+3])
						s3 += a0*int32(b3[p]) + a1*int32(b3[p+1]) + a2*int32(b3[p+2]) + a3*int32(b3[p+3])
					}
					for ; p < k; p++ {
						av := int32(arow[p])
						s0 += av * int32(b0[p])
						s1 += av * int32(b1[p])
						s2 += av * int32(b2[p])
						s3 += av * int32(b3[p])
					}
					orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
				}
			}
			for ; j < j0+jb; j++ {
				brow := bd[j*k : j*k+k]
				if fast {
					orow[j] = fastDotS8(arow, brow)
				} else {
					orow[j] = dotS8Ref(arow, brow)
				}
			}
		}
	}
}

// gemmS8TBRef is the one-dot-per-element reference kernel — the
// bitwise oracle for GemmS8TB in quant_test.go.
func gemmS8TBRef(od []int32, ad, bd []int8, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			od[i*n+j] = dotS8Ref(ad[i*k:(i+1)*k], bd[j*k:(j+1)*k])
		}
	}
}

// Im2RowS8 gathers conv patches of an int8 input plane patch-major:
// dst row q (length c·kh·kw) is the receptive field of output position
// q = y·outW + x, with out-of-bounds (padding) elements written as the
// exact 0 byte. The resulting outH·outW × c·kh·kw matrix feeds
// GemmS8TB against per-output-channel weight rows. Layout matches the
// float im2colRow's column order transposed: patch-major here because
// the int8 GEMM is the Bᵀ (dot) form.
func Im2RowS8(dst, src []int8, c, h, w, kh, kw, stride, pad, outH, outW int) {
	k := c * kh * kw
	if len(src) != c*h*w || len(dst) != outH*outW*k {
		panic(fmt.Sprintf("tensor: Im2RowS8 shape mismatch c=%d h=%d w=%d dst=%d src=%d",
			c, h, w, len(dst), len(src)))
	}
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			row := dst[(oy*outW+ox)*k : (oy*outW+ox+1)*k]
			d := 0
			for ci := 0; ci < c; ci++ {
				plane := src[ci*h*w : (ci+1)*h*w]
				for ky := 0; ky < kh; ky++ {
					iy := oy*stride - pad + ky
					if iy < 0 || iy >= h {
						for kx := 0; kx < kw; kx++ {
							row[d] = 0
							d++
						}
						continue
					}
					base := iy * w
					ix := ox*stride - pad
					for kx := 0; kx < kw; kx++ {
						if x := ix + kx; x >= 0 && x < w {
							row[d] = plane[base+x]
						} else {
							row[d] = 0
						}
						d++
					}
				}
			}
		}
	}
}
