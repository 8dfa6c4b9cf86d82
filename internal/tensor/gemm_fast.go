//go:build amd64 && !noasm

package tensor

// Fast-tier orchestration: the same packing, blocking, and sharding
// schedules as the exact kernels, with the inner loops replaced by the
// AVX2+FMA microkernels in gemm_avx2_amd64.s. The axpy kernels finish
// their own scalar tail with the same fused operation in the same
// order as the vector lanes, so an output element's bits never depend
// on where it sits in a panel; the dot kernels take the widest
// multiple of 8 and Go code adds the rest.
//
// Fused conv forward/dX and composed GEMM stay bit-identical to each
// other *within* the fast tier for the same reason they do in the
// exact tier: both feed identical per-element operand sequences to the
// same kernels (fastTile1 / fastDot4 / fastDot), and panel addressing
// only changes where values live, not which operations run. The one
// exception is conv dW (convSampleDWAxpy below), which batches rank-1
// axpy updates instead of running the composed GemmTB's dot products —
// a different per-element rounding order, so fast-tier dW is ULP-pinned
// against the exact oracle like any other fast kernel while staying
// bit-deterministic and worker-invariant within the tier.

//go:noescape
func axpy4FMA(dst, b0, b1, b2, b3 *float32, a0, a1, a2, a3 float32, n int)

//go:noescape
func axpyFMA(dst, b *float32, a float32, n int)

//go:noescape
func dot4FMA(a, b0, b1, b2, b3 *float32, n int, out *float32)

//go:noescape
func dotFMA(a, b *float32, n int) float32

// fastTile1 is the fast-tier counterpart of gemmTile1: one output row
// segment against a B panel whose row p lives at pb[offs[p] : +jw]
// (see rowOffs). The quad skip-zero check is kept so pruned models
// keep their sparsity win on the fast tier too.
func fastTile1(orow, arow, pb []float32, offs []int, jw int) {
	clear(orow)
	k := len(arow)
	offs = offs[:k] // one length check instead of one per B row
	p := 0
	for ; p+4 <= k; p += 4 {
		a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
		if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
			continue
		}
		b0 := pb[offs[p] : offs[p]+jw]
		b1 := pb[offs[p+1] : offs[p+1]+jw]
		b2 := pb[offs[p+2] : offs[p+2]+jw]
		b3 := pb[offs[p+3] : offs[p+3]+jw]
		axpy4FMA(&orow[0], &b0[0], &b1[0], &b2[0], &b3[0], a0, a1, a2, a3, jw)
	}
	for ; p < k; p++ {
		if av := arow[p]; av != 0 {
			brow := pb[offs[p] : offs[p]+jw]
			axpyFMA(&orow[0], &brow[0], av, jw)
		}
	}
}

// fastGemmRows walks output rows [lo, hi) with the column-panel
// schedule of gemmRows, one row at a time (the 4-coefficient axpy
// microkernel already carries the register-tile role gemmTile2 plays
// in the scalar kernel).
func fastGemmRows(od, ad, pb []float32, k, n, lo, hi int) {
	offs := getOffs(k)
	for j0 := 0; j0 < n; j0 += gemmJTile {
		jw := min(n-j0, gemmJTile)
		o := offs.strided(jw)
		for i := lo; i < hi; i++ {
			fastTile1(od[i*n+j0:i*n+j0+jw], ad[i*k:i*k+k], pb[j0*k:], o, jw)
		}
	}
	offsPool.Put(offs)
}

// fastGemm is the fast-tier dst = A·B entry: same packing and row
// sharding as Gemm.
func fastGemm(dst, a, b []float32, m, k, n int) {
	pb, buf := packB(b, k, n)
	if m >= 2 && m*k*n >= matMulShardFlops && Workers() > 1 {
		ParallelFor(m, func(_, lo, hi int) {
			fastGemmRows(dst, a, pb, k, n, lo, hi)
		})
	} else {
		fastGemmRows(dst, a, pb, k, n, 0, m)
	}
	if buf != nil {
		panelPool.Put(buf)
	}
}

// fastGemmTAPanel computes output rows [lo, hi) of dst = Aᵀ·B:
// transpose-pack the shard's A columns into a pooled row-major panel,
// then reuse the fast row kernel against the packed B. Per-element
// results do not depend on the shard bounds, so sharded and serial
// runs agree bitwise within the fast tier.
func fastGemmTAPanel(dst, a, pb []float32, k, m, n, lo, hi int) {
	iw := hi - lo
	t := getPanel(iw * k)
	for p := 0; p < k; p++ {
		col := a[p*m+lo : p*m+hi]
		for ii, v := range col {
			t.f[ii*k+p] = v
		}
	}
	fastGemmRows(dst[lo*n:hi*n], t.f, pb, k, n, 0, iw)
	panelPool.Put(t)
}

// fastGemmTA is the fast-tier dst = Aᵀ·B entry: same shard split as
// GemmTA.
func fastGemmTA(dst, a, b []float32, k, m, n int) {
	pb, buf := packB(b, k, n)
	if m >= 2 && m*k*n >= matMulShardFlops && Workers() > 1 {
		ParallelFor(m, func(_, lo, hi int) {
			fastGemmTAPanel(dst, a, pb, k, m, n, lo, hi)
		})
	} else {
		fastGemmTAPanel(dst, a, pb, k, m, n, 0, m)
	}
	if buf != nil {
		panelPool.Put(buf)
	}
}

// fastGemmTASerial is fastGemmTA without the worker fan-out, for
// callers already running inside a ParallelFor (conv backward's
// per-sample dX stage).
func fastGemmTASerial(dst, a, b []float32, k, m, n int) {
	pb, buf := packB(b, k, n)
	fastGemmTAPanel(dst, a, pb, k, m, n, 0, m)
	if buf != nil {
		panelPool.Put(buf)
	}
}

// convSampleDWAxpy is the fast-tier dW kernel (ROADMAP item 3's axpy
// batching): instead of one dot product per chunk element over
// outArea-length vectors — which regenerates or reloads every column
// row once per output channel — it walks output positions and streams
// rank-1 updates chunk[oc,:] += dy[oc,p]·patch[p,:] through the axpy
// microkernels, so each gathered k-length patch row is reused across
// all outC chunk rows. Four positions are batched per axpy4FMA call; a
// quad whose four dy coefficients are all zero is skipped (ReLU
// backprop zeros), mirroring fastTile1's sparsity win. Each chunk
// element accumulates in ascending p with 4-term FMA groups — a fixed
// sequence for a fixed shape, so the result is bit-deterministic and
// (the per-sample batch shard being the parallel unit) worker-count
// invariant, but differently rounded than the exact tier's dot kernel:
// dW is ULP-pinned against the exact oracle, not bitwise. Patch rows
// come from g.patchRow, so x is the sample as g's generators read it
// (the zero-padded plane on the stride-1 path).
func convSampleDWAxpy(chunk, x, dyi, patches []float32, g *convGeom, outC int) {
	outArea := g.outH * g.outW
	k := g.c * g.kh * g.kw
	clear(chunk[:outC*k])
	gather := func(p, slot int) []float32 {
		d := patches[slot*k : (slot+1)*k]
		g.patchRow(d, x, p/g.outW, p%g.outW)
		return d
	}
	p := 0
	for ; p+4 <= outArea; p += 4 {
		b0 := gather(p, 0)
		b1 := gather(p+1, 1)
		b2 := gather(p+2, 2)
		b3 := gather(p+3, 3)
		for oc := 0; oc < outC; oc++ {
			a0, a1 := dyi[oc*outArea+p], dyi[oc*outArea+p+1]
			a2, a3 := dyi[oc*outArea+p+2], dyi[oc*outArea+p+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			axpy4FMA(&chunk[oc*k], &b0[0], &b1[0], &b2[0], &b3[0], a0, a1, a2, a3, k)
		}
	}
	for ; p < outArea; p++ {
		b0 := gather(p, 0)
		for oc := 0; oc < outC; oc++ {
			if av := dyi[oc*outArea+p]; av != 0 {
				axpyFMA(&chunk[oc*k], &b0[0], av, k)
			}
		}
	}
}

// fastDot4 returns the four dot products of a against b0..b3
// (all len(a) long): microkernel over the widest multiple of 8,
// scalar tail in Go.
func fastDot4(a, b0, b1, b2, b3 []float32) (s0, s1, s2, s3 float32) {
	k := len(a)
	w := k &^ 7
	if w > 0 {
		var out [4]float32
		dot4FMA(&a[0], &b0[0], &b1[0], &b2[0], &b3[0], w, &out[0])
		s0, s1, s2, s3 = out[0], out[1], out[2], out[3]
	}
	for p := w; p < k; p++ {
		av := a[p]
		s0 += av * b0[p]
		s1 += av * b1[p]
		s2 += av * b2[p]
		s3 += av * b3[p]
	}
	return
}

// fastDot returns the dot product of a and b (same length).
func fastDot(a, b []float32) float32 {
	k := len(a)
	w := k &^ 7
	var s float32
	if w > 0 {
		s = dotFMA(&a[0], &b[0], w)
	}
	for p := w; p < k; p++ {
		s += a[p] * b[p]
	}
	return s
}

// fastGemmTBRows computes output rows [lo, hi) of dst = A·Bᵀ with the
// gemmTBRows schedule (B-row blocks of gemmTBJBlock, 1×4 dot tiles).
func fastGemmTBRows(od, ad, bd []float32, k, n, lo, hi int) {
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
				orow[j], orow[j+1], orow[j+2], orow[j+3] = fastDot4(arow,
					bd[j*k:j*k+k], bd[(j+1)*k:(j+1)*k+k],
					bd[(j+2)*k:(j+2)*k+k], bd[(j+3)*k:(j+3)*k+k])
			}
			for ; j < j0+jb; j++ {
				orow[j] = fastDot(arow, bd[j*k:j*k+k])
			}
		}
	}
}

// fastGemmTB is the fast-tier dst = A·Bᵀ entry: same row sharding as
// GemmTB.
func fastGemmTB(dst, a, b []float32, m, k, n int) {
	if m >= 2 && m*k*n >= matMulShardFlops && Workers() > 1 {
		ParallelFor(m, func(_, lo, hi int) {
			fastGemmTBRows(dst, a, b, k, n, lo, hi)
		})
		return
	}
	fastGemmTBRows(dst, a, b, k, n, 0, m)
}
