package tensor

// Implicit-GEMM convolution kernels.
//
// The classic lowering (nn.Conv2D before this file existed) pays a
// full write+read of a materialized (C·kh·kw) × (outH·outW) column
// matrix per sample and then runs N tiny per-sample GEMMs that are too
// small to engage the panel blocking in matmul.go. The kernels here
// fuse the lowering into the GEMM instead, and dispatch on the stride
// alone:
//
//   - Stride 1 (all but the downsampling convolutions of a ResNet)
//     lowers nothing. Each sample's zero-padded c × hp × wp plane
//     (hp = h+2·pad, wp = w+2·pad; the input itself when pad is 0) is
//     read in place: output position (oy, ox) becomes extended column
//     oy·wp + ox, and B row p = (ch, ky, kx) is then the contiguous
//     run plane[ch·hp·wp + ky·wp + kx + q'], so a per-row offset table
//     (rowOffs) replaces the packed panel. Backward generates its
//     column and patch rows as plain row copies out of the plane and
//     scatters dX through a zeroed padded gradient plane with
//     bounds-free row adds.
//   - Any other stride packs input patches panel-by-panel straight
//     into the pooled panelBuf layout (Im2ColPanels pins it) and keeps
//     the bounds-checked im2col/col2im row bodies in backward.
//
// Forward treats the whole NCHW batch as ONE GEMM of shape
// outC × (C·kh·kw) × (N·outH·outW) and parallelizes across
// (sample, column panel) units. Backward streams per sample: dX stages
// Wᵀ·dY in a pooled scratch block and scatters it row by row, and dW is
// computed as per-sample chunks with column rows generated on the fly.
//
// Bit-identity contract (§6/§7 of DESIGN.md): every output element's
// floating-point accumulation order is exactly that of the
// Im2Col+Gemm / GemmTB / GemmTA+Col2Im composition it replaced. The
// plane path feeds each valid output element the same operand
// sequence, padding zeros included; batching, panel regrouping and the
// extended columns only change which elements are computed together,
// never the operation sequence within one. convgemm_test.go pins this
// against the materialized composition as the bitwise oracle across a
// shape grid, a fuzz target, and several worker counts.
//
// One carve-out: the fast tier's dW stage (convSampleDWAxpy in
// gemm_fast.go) batches rank-1 axpy updates instead of running dot
// products, which changes each chunk element's rounding order. It is
// therefore ULP-pinned against the exact oracle like every other
// fast-tier kernel — not bitwise — while remaining bit-deterministic
// and worker-invariant within the fast tier. The exact tier and the
// dX stage keep the full bitwise contract on both tiers.

// Im2ColPanels lowers a whole NCHW batch into the packed column-panel
// layout the blocked GEMM kernels consume: the conceptual
// (C·kh·kw) × (N·outH·outW) column matrix, laid out exactly as packB
// would pack it — the panel starting at batch column j0 occupies
// dst[j0·k:] with row p of the panel at dst[j0·k+p·jw : +jw]
// (k = C·kh·kw, jw = panel width ≤ gemmJTile). Column j0 of the batch
// matrix is output position j0 mod (outH·outW) of sample
// j0 / (outH·outW). dst must hold C·kh·kw·N·outH·outW elements.
//
// ConvGemmForward packs the same panels internally (pooled, one panel
// at a time); this entry point exists for callers that want to pre-pack
// a batch once and as the pinned definition of the packed layout.
func Im2ColPanels(src []float32, n, c, h, w, kh, kw, stride, pad int, dst []float32) {
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	if outH <= 0 || outW <= 0 {
		panic("tensor: Im2ColPanels empty output")
	}
	k := c * kh * kw
	cols := n * outH * outW
	if len(src) < n*c*h*w {
		panic("tensor: Im2ColPanels src too small")
	}
	if len(dst) < k*cols {
		panic("tensor: Im2ColPanels dst too small")
	}
	for j0 := 0; j0 < cols; j0 += gemmJTile {
		jw := cols - j0
		if jw > gemmJTile {
			jw = gemmJTile
		}
		im2colPanel(dst[j0*k:], src, c, h, w, kh, kw, stride, pad, outH, outW, j0, jw)
	}
}

// im2colPanel packs one panel — batch columns [j0, j0+jw) — into dst
// with row p of the panel at dst[p*jw : p*jw+jw]. A panel may span
// several samples; each sample's segment is lowered independently.
func im2colPanel(dst, src []float32, c, h, w, kh, kw, stride, pad, outH, outW, j0, jw int) {
	outArea := outH * outW
	chw := c * h * w
	for off := 0; off < jw; {
		i := (j0 + off) / outArea
		q0 := (j0 + off) % outArea
		q1 := q0 + (jw - off)
		if q1 > outArea {
			q1 = outArea
		}
		im2colSeg(dst[off:], jw, src[i*chw:(i+1)*chw], c, h, w, kh, kw, stride, pad, outH, outW, q0, q1)
		off += q1 - q0
	}
}

// im2colSeg lowers output positions [q0, q1) of one CHW image: row p of
// the column matrix lands at dst[p*rowStride : p*rowStride+(q1-q0)].
// It is im2colRow restricted to a position range, split into full
// output-row runs so the inner loops stay branch-light.
func im2colSeg(dst []float32, rowStride int, src []float32, c, h, w, kh, kw, stride, pad, outH, outW, q0, q1 int) {
	oy0, ox0 := q0/outW, q0%outW
	row := 0
	for ch := 0; ch < c; ch++ {
		chBase := ch * h * w
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				d := dst[row*rowStride:]
				row++
				di := 0
				oy, ox := oy0, ox0
				for q := q0; q < q1; {
					run := outW - ox
					if run > q1-q {
						run = q1 - q
					}
					iy := oy*stride - pad + ky
					if iy < 0 || iy >= h {
						for x := 0; x < run; x++ {
							d[di] = 0
							di++
						}
					} else {
						rowBase := chBase + iy*w
						ix := ox*stride - pad + kx
						for x := 0; x < run; x++ {
							if ix >= 0 && ix < w {
								d[di] = src[rowBase+ix]
							} else {
								d[di] = 0
							}
							di++
							ix += stride
						}
					}
					q += run
					oy++
					ox = 0
				}
			}
		}
	}
}

// convGeom is one convolution's shape. hp × wp is the zero-padded
// plane the stride-1 path reads, and ext = (outH−1)·wp + outW its
// extended output columns (see convForwardPlane).
type convGeom struct {
	c, h, w, kh, kw, stride, pad int
	outH, outW, hp, wp, ext      int
}

func newConvGeom(c, h, w, kh, kw, stride, pad int) convGeom {
	g := convGeom{c: c, h: h, w: w, kh: kh, kw: kw, stride: stride, pad: pad,
		outH: ConvOutSize(h, kh, stride, pad), outW: ConvOutSize(w, kw, stride, pad),
		hp: h + 2*pad, wp: w + 2*pad}
	g.ext = (g.outH-1)*g.wp + g.outW
	return g
}

// tap splits column row r into its (channel, ky, kx) tap.
func (g *convGeom) tap(r int) (ch, ky, kx int) {
	return r / (g.kh * g.kw), r / g.kw % g.kh, r % g.kw
}

// planeOff is the plane offset of column row r's tap at output (0, 0).
func (g *convGeom) planeOff(r int) int {
	ch, ky, kx := g.tap(r)
	return ch*g.hp*g.wp + ky*g.wp + kx
}

// padLen is the scratch one padded plane needs: zero unless the
// stride-1 path has padding to add.
func (g *convGeom) padLen() int {
	if g.stride != 1 || g.pad == 0 {
		return 0
	}
	return g.c * g.hp * g.wp
}

// plane returns sample x (c×h×w) as the row generators below read it:
// for stride 1 with padding, the zero-padded plane built in buf;
// otherwise x itself.
func (g *convGeom) plane(buf, x []float32) []float32 {
	if g.padLen() == 0 {
		return x
	}
	pl := buf[:g.padLen()]
	clear(pl)
	for ch := 0; ch < g.c; ch++ {
		for y := 0; y < g.h; y++ {
			copy(pl[(ch*g.hp+y+g.pad)*g.wp+g.pad:][:g.w], x[(ch*g.h+y)*g.w:])
		}
	}
	return pl
}

// colRow writes column row r of sample plane x — its (ch, ky, kx) tap
// over every output position — into d (outH·outW long).
func (g *convGeom) colRow(d, x []float32, r int) {
	if g.stride != 1 {
		ch, ky, kx := g.tap(r)
		im2colRow(d, x, ch*g.h*g.w, ky, kx, g.h, g.w, g.outH, g.outW, g.stride, g.pad)
		return
	}
	off := g.planeOff(r)
	for oy := 0; oy < g.outH; oy++ {
		row := d[oy*g.outW:][:g.outW]
		for ox, v := range x[off+oy*g.wp:][:len(row)] {
			row[ox] = v
		}
	}
}

// patchRow writes the receptive field of output (oy, ox) of sample
// plane x into d as one c·kh·kw row (im2row layout).
func (g *convGeom) patchRow(d, x []float32, oy, ox int) {
	if g.stride != 1 {
		im2rowPatch(d, x, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad, oy, ox)
		return
	}
	for ch := 0; ch < g.c; ch++ {
		for ky := 0; ky < g.kh; ky++ {
			taps := d[(ch*g.kh+ky)*g.kw:][:g.kw]
			for kx, v := range x[(ch*g.hp+oy+ky)*g.wp+ox:][:len(taps)] {
				taps[kx] = v
			}
		}
	}
}

// scatterRow adds dcol row s — tap (ch, ky, kx) — into gx: the padded
// gradient plane for stride 1, the c×h×w image otherwise. Per image
// element the adds land in the same order as Col2Im's.
func (g *convGeom) scatterRow(gx, s []float32, ch, ky, kx int) {
	if g.stride != 1 {
		col2imRow(gx, s, ch*g.h*g.w, ky, kx, g.h, g.w, g.outH, g.outW, g.stride, g.pad)
		return
	}
	off := (ch*g.hp+ky)*g.wp + kx
	for oy := 0; oy < g.outH; oy++ {
		d := gx[off+oy*g.wp:][:g.outW]
		for x, v := range s[oy*g.outW:][:len(d)] {
			d[x] += v
		}
	}
}

// ConvGemmForward computes the NCHW convolution output
// dst = W · im2col(src) for a whole batch as one implicit GEMM of
// shape outC × (c·kh·kw) × (n·outH·outW). dst is n×outC×outH×outW,
// wd is outC×(c·kh·kw) row-major, src is n×c×h×w. Stride 1 reads each
// sample's padded plane in place (convForwardPlane); any other stride
// packs pooled im2col panels (convForwardUnits). Above
// matMulShardFlops the (sample, panel) units are sharded across
// Workers() goroutines. Results are bit-identical to the per-sample
// Im2Col+Gemm composition at any worker count.
func ConvGemmForward(dst, wd, src []float32, n, c, h, w, outC, kh, kw, stride, pad int) {
	g := newConvGeom(c, h, w, kh, kw, stride, pad)
	if n == 0 || outC == 0 {
		return
	}
	if g.outH <= 0 || g.outW <= 0 {
		panic("tensor: ConvGemmForward empty output")
	}
	outArea := g.outH * g.outW
	k := c * kh * kw
	if len(src) < n*c*h*w {
		panic("tensor: ConvGemmForward src too small")
	}
	if len(wd) < outC*k {
		panic("tensor: ConvGemmForward weight too small")
	}
	if len(dst) < n*outC*outArea {
		panic("tensor: ConvGemmForward dst too small")
	}
	cols := outArea
	if stride == 1 {
		cols = g.ext
	}
	perSample := (cols + gemmJTile - 1) / gemmJTile
	units := n * perSample
	if units >= 2 && n*k*outArea*outC >= matMulShardFlops && Workers() > 1 {
		ParallelFor(units, func(_, lo, hi int) {
			convForwardRange(dst, wd, src, g, outC, perSample, lo, hi)
		})
		return
	}
	convForwardRange(dst, wd, src, g, outC, perSample, 0, units)
}

// convForwardRange runs forward units [lo, hi) on the path g's stride
// selects.
func convForwardRange(dst, wd, src []float32, g convGeom, outC, perSample, lo, hi int) {
	if g.stride == 1 {
		convForwardPlane(dst, wd, src, &g, outC, perSample, lo, hi)
		return
	}
	convForwardUnits(dst, wd, src, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad, g.outH, g.outW, outC, perSample, lo, hi)
}

// convForwardPlane runs (sample, panel) units [lo, hi) of a stride-1
// convolution over each sample's padded plane: output (oy, ox) is
// extended column oy·wp + ox, and the panel at extended column j0
// reads B row p = (ch, ky, kx) at plane[offs[p]+j0 : +jw] with
// offs[p] = ch·hp·wp + ky·wp + kx, so nothing is lowered. The outC × jw
// extended block lands in pooled scratch and the valid outW columns of
// each output row are copied into dst; the wp−outW columns between
// them straddle two image rows and are dropped. Extended columns stop
// at ext, which keeps every read inside the plane.
func convForwardPlane(dst, wd, src []float32, g *convGeom, outC, perSample, lo, hi int) {
	outArea := g.outH * g.outW
	chw := g.c * g.h * g.w
	offs := getOffs(g.c * g.kh * g.kw)
	for r := range offs.o {
		offs.o[r] = g.planeOff(r)
	}
	buf := getPanel(g.padLen() + outC*gemmJTile)
	ob := buf.f[g.padLen():]
	var plane []float32
	for u := lo; u < hi; u++ {
		i, j0 := u/perSample, u%perSample*gemmJTile
		if u == lo || j0 == 0 {
			plane = g.plane(buf.f, src[i*chw:(i+1)*chw])
		}
		jw := min(g.ext-j0, gemmJTile)
		convPanelRows(ob, wd, plane[j0:], offs.o, outC, jw, 0, jw)
		od := dst[i*outC*outArea:]
		for q := j0; q < j0+jw; {
			oy, ox := q/g.wp, q%g.wp
			if run := min(g.outW-ox, j0+jw-q); run > 0 {
				for oc := 0; oc < outC; oc++ {
					copy(od[oc*outArea+oy*g.outW+ox:][:run], ob[oc*jw+q-j0:])
				}
			}
			q += g.wp - ox
		}
	}
	panelPool.Put(buf)
	offsPool.Put(offs)
}

// convForwardUnits packs and consumes im2col panel units [lo, hi). A
// unit is one column panel of one sample — panels are sample-aligned,
// so every panel's output rows are contiguous dst segments and the
// tiles write straight into the batch output. Each panel is lowered
// into a pooled k×gemmJTile buffer and multiplied while still
// cache-hot; the column matrix as a whole never exists.
func convForwardUnits(dst, wd, src []float32, c, h, w, kh, kw, stride, pad, outH, outW, outC, perSample, lo, hi int) {
	outArea := outH * outW
	k := c * kh * kw
	chw := c * h * w
	pbuf := getPanel(k * gemmJTile)
	offs := getOffs(k)
	for u := lo; u < hi; u++ {
		i, j0 := u/perSample, u%perSample*gemmJTile
		jw := min(outArea-j0, gemmJTile)
		im2colSeg(pbuf.f, jw, src[i*chw:(i+1)*chw], c, h, w, kh, kw, stride, pad, outH, outW, j0, j0+jw)
		convPanelRows(dst, wd, pbuf.f, offs.strided(jw), outC, jw, i*outC*outArea+j0, outArea)
	}
	panelPool.Put(pbuf)
	offsPool.Put(offs)
}

// convPanelRows runs the 2-row register tiles of matmul.go over all
// outC weight rows for one panel: output row oc lands at
// od[base+oc*orStride : +jw], panel row p is read at pb[offs[p] :
// +jw]. Reusing gemmTile2/gemmTile1 verbatim is what makes the fused
// path's per-element operation sequence identical to Gemm's.
func convPanelRows(od, wd, pb []float32, offs []int, outC, jw, base, orStride int) {
	k := len(offs)
	if useFast() {
		// Fast tier: the same per-row microkernel the fast Gemm path
		// runs, so fused conv stays bit-identical to the composed
		// Im2Col+Gemm oracle within the tier.
		for i := 0; i < outC; i++ {
			fastTile1(od[base+i*orStride:base+i*orStride+jw], wd[i*k:i*k+k], pb, offs, jw)
		}
		return
	}
	i := 0
	for ; i+2 <= outC; i += 2 {
		gemmTile2(od[base+i*orStride:base+i*orStride+jw],
			od[base+(i+1)*orStride:base+(i+1)*orStride+jw],
			wd[i*k:i*k+k], wd[(i+1)*k:(i+1)*k+k], pb, offs, jw)
	}
	for ; i < outC; i++ {
		gemmTile1(od[base+i*orStride:base+i*orStride+jw], wd[i*k:i*k+k], pb, offs, jw)
	}
}

// ConvGemmBackward computes both convolution gradients in one fused
// batched pass:
//
//   - dwChunks receives n per-sample weight-gradient chunks, chunk i
//     (outC×(c·kh·kw) row-major, dY_i · col_iᵀ) at
//     dwChunks[i*outC*c*kh*kw:]. Column rows are generated on the fly
//     from src — the per-sample column matrix is never materialized.
//     The caller adds the chunks to the gradient in ascending sample
//     order, preserving the per-sample accumulation the serial
//     GemmTB+AddInPlace loop performed.
//   - dX (n×c×h×w, pre-zeroed by the caller) receives the fused
//     col2im of Wᵀ·dY: the dcol block is computed into pooled scratch
//     and scattered into the image in ascending row order — exactly
//     Col2Im's accumulation order — without a per-layer dcol buffer.
//
// Samples are independent, so the batch shards across Workers()
// goroutines above matMulShardFlops; per-sample results are
// bit-identical to the materialized GemmTB / GemmTA+Col2Im composition
// at any worker count. Stride-1 convolutions generate rows from, and
// scatter into, padded planes (see convGeom); other strides keep the
// bounds-checked im2col/col2im row bodies.
func ConvGemmBackward(dX, dwChunks, wd, src, dY []float32, n, c, h, w, outC, kh, kw, stride, pad int) {
	g := newConvGeom(c, h, w, kh, kw, stride, pad)
	if n == 0 {
		return
	}
	if g.outH <= 0 || g.outW <= 0 {
		panic("tensor: ConvGemmBackward empty output")
	}
	outArea := g.outH * g.outW
	k := c * kh * kw
	if len(src) < n*c*h*w || len(dX) < n*c*h*w {
		panic("tensor: ConvGemmBackward src/dX too small")
	}
	if len(wd) < outC*k || len(dwChunks) < n*outC*k {
		panic("tensor: ConvGemmBackward weight/chunk buffer too small")
	}
	if len(dY) < n*outC*outArea {
		panic("tensor: ConvGemmBackward dY too small")
	}
	if n >= 2 && n*k*outArea*outC >= matMulShardFlops && Workers() > 1 {
		ParallelFor(n, func(_, lo, hi int) {
			convBackwardSamples(dX, dwChunks, wd, src, dY, g, outC, lo, hi)
		})
		return
	}
	convBackwardSamples(dX, dwChunks, wd, src, dY, g, outC, 0, n)
}

// convBackwardSamples processes samples [lo, hi): the dW chunk and the
// fused col2im dX of each sample in turn.
func convBackwardSamples(dX, dwChunks, wd, src, dY []float32, g convGeom, outC, lo, hi int) {
	outArea := g.outH * g.outW
	k := g.c * g.kh * g.kw
	chw := g.c * g.h * g.w
	outStride := outC * outArea
	vec := useFast()
	// Scratch, all from one pooled panel: 4 generated column rows for
	// the exact-tier dW quads, 4 gathered patch rows for the fast-tier
	// axpy dW, a k-row dcol block for dX, and the padded input and
	// gradient planes (empty unless stride 1 with padding).
	pl := g.padLen()
	buf := getPanel(4*outArea + 4*k + k*outArea + 2*pl)
	gen := buf.f[:4*outArea]
	patches := buf.f[4*outArea : 4*outArea+4*k]
	sb := buf.f[4*outArea+4*k : 4*outArea+4*k+k*outArea]
	planes := buf.f[4*outArea+4*k+k*outArea:]
	// Fast-tier dW dispatch is by shape: the axpy batching streams
	// rank-1 updates over k-length chunk rows, which wins when the dot
	// kernels would pay a horizontal reduction per element over short
	// outArea-length vectors (deep layers, k >= outArea) and loses to
	// chunk-row load/store traffic when outArea dominates (early
	// layers). The predicate depends only on the layer shape, never on
	// data or worker count, so results stay deterministic.
	axpy := vec && k >= outArea
	for i := lo; i < hi; i++ {
		x := g.plane(planes[:pl], src[i*chw:(i+1)*chw])
		dyi := dY[i*outStride : (i+1)*outStride]
		chunk := dwChunks[i*outC*k : (i+1)*outC*k]
		if axpy {
			convSampleDWAxpy(chunk, x, dyi, patches, &g, outC)
		} else {
			convSampleDW(chunk, x, dyi, gen, &g, outC, vec)
		}
		convSampleDX(dX[i*chw:(i+1)*chw], planes[pl:], wd, dyi, sb, &g, outC)
	}
	panelPool.Put(buf)
}

// im2rowPatch gathers the receptive field of output position (oy, ox)
// as one contiguous k-length row (c·kh·kw, channel-major), with
// out-of-bounds taps written as exact 0 — one row of the patch-major
// (im2row) layout, the transpose of im2colRow's column order.
func im2rowPatch(dst, src []float32, c, h, w, kh, kw, stride, pad, oy, ox int) {
	d := 0
	for ci := 0; ci < c; ci++ {
		plane := src[ci*h*w : (ci+1)*h*w]
		for ky := 0; ky < kh; ky++ {
			iy := oy*stride - pad + ky
			if iy < 0 || iy >= h {
				for kx := 0; kx < kw; kx++ {
					dst[d] = 0
					d++
				}
				continue
			}
			base := iy * w
			ix := ox*stride - pad
			for kx := 0; kx < kw; kx++ {
				if x := ix + kx; x >= 0 && x < w {
					dst[d] = plane[base+x]
				} else {
					dst[d] = 0
				}
				d++
			}
		}
	}
}

// convSampleDW computes one sample's weight-gradient chunk
// dY_i · col_iᵀ with column rows generated on demand from x (the
// sample as g.plane returns it) — the dot-form kernel (fast-tier deep
// shapes with k >= outArea run convSampleDWAxpy instead; see
// convBackwardSamples). The dot-product bodies are exactly
// gemmTBRows' 1×4 and single-column tiles (fastDot4/fastDot on the
// fast tier — the same microkernels the fast GemmTB runs, keeping this
// form bit-identical to the composed oracle within either tier),
// reordered column-quad-outer so each generated row quad is reused
// across every output row — a reordering across output elements only,
// so each element's accumulation sequence is unchanged.
func convSampleDW(chunk, x, dyi, gen []float32, g *convGeom, outC int, vec bool) {
	outArea := g.outH * g.outW
	k := g.c * g.kh * g.kw
	colRow := func(r, slot int) []float32 {
		d := gen[slot*outArea : (slot+1)*outArea]
		g.colRow(d, x, r)
		return d
	}
	j := 0
	for ; j+4 <= k; j += 4 {
		b0 := colRow(j, 0)
		b1 := colRow(j+1, 1)
		b2 := colRow(j+2, 2)
		b3 := colRow(j+3, 3)
		for oc := 0; oc < outC; oc++ {
			arow := dyi[oc*outArea : (oc+1)*outArea]
			if vec {
				chunk[oc*k+j], chunk[oc*k+j+1], chunk[oc*k+j+2], chunk[oc*k+j+3] =
					fastDot4(arow, b0, b1, b2, b3)
				continue
			}
			var s0, s1, s2, s3 float32
			p := 0
			for ; p+4 <= outArea; p += 4 {
				a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
				s0 += a0*b0[p] + a1*b0[p+1] + a2*b0[p+2] + a3*b0[p+3]
				s1 += a0*b1[p] + a1*b1[p+1] + a2*b1[p+2] + a3*b1[p+3]
				s2 += a0*b2[p] + a1*b2[p+1] + a2*b2[p+2] + a3*b2[p+3]
				s3 += a0*b3[p] + a1*b3[p+1] + a2*b3[p+2] + a3*b3[p+3]
			}
			for ; p < outArea; p++ {
				av := arow[p]
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			chunk[oc*k+j], chunk[oc*k+j+1], chunk[oc*k+j+2], chunk[oc*k+j+3] = s0, s1, s2, s3
		}
	}
	for ; j < k; j++ {
		brow := colRow(j, 0)
		for oc := 0; oc < outC; oc++ {
			arow := dyi[oc*outArea : (oc+1)*outArea]
			if vec {
				chunk[oc*k+j] = fastDot(arow, brow)
				continue
			}
			var s float32
			p := 0
			for ; p+4 <= outArea; p += 4 {
				s += arow[p]*brow[p] + arow[p+1]*brow[p+1] +
					arow[p+2]*brow[p+2] + arow[p+3]*brow[p+3]
			}
			for ; p < outArea; p++ {
				s += arow[p] * brow[p]
			}
			chunk[oc*k+j] = s
		}
	}
}

// convSampleDX computes one sample's input gradient: the dcol block
// Wᵀ·dY_i is produced by gemmTAShard — the exact kernel behind GemmTA,
// so every dcol element accumulates in the reference order with the
// reference zero skips — into a pooled scratch block shared across the
// shard's samples, then scattered row by row in ascending row order,
// exactly Col2Im's accumulation order. A padded stride-1 convolution
// scatters into the zeroed gradient plane gp and copies its interior
// into dxi; without padding the plane is dxi itself.
func convSampleDX(dxi, gp, wd, dyi, sb []float32, g *convGeom, outC int) {
	outArea := g.outH * g.outW
	k := g.c * g.kh * g.kw
	if useFast() {
		// Serial fast variant: this runs inside the per-sample
		// ParallelFor, so it must not fan out again.
		fastGemmTASerial(sb, wd, dyi, outC, k, outArea)
	} else {
		gemmTAShard(sb, wd, dyi, outC, k, outArea, 0, k)
	}
	gx := dxi
	if g.padLen() > 0 {
		gx = gp[:g.padLen()]
		clear(gx)
	}
	r := 0
	for ch := 0; ch < g.c; ch++ {
		for ky := 0; ky < g.kh; ky++ {
			for kx := 0; kx < g.kw; kx++ {
				g.scatterRow(gx, sb[r*outArea:(r+1)*outArea], ch, ky, kx)
				r++
			}
		}
	}
	if g.padLen() > 0 {
		for ch := 0; ch < g.c; ch++ {
			for y := 0; y < g.h; y++ {
				copy(dxi[(ch*g.h+y)*g.w:][:g.w], gx[(ch*g.hp+y+g.pad)*g.wp+g.pad:])
			}
		}
	}
}
