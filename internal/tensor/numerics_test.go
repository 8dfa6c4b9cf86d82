package tensor

import (
	"fmt"
	"math"
	"testing"
)

// Fast-tier pinning. The fast kernels fuse multiply-add (one rounding
// instead of two) and sum in vector-lane order, so bit-identity with
// the exact tier is impossible by construction; instead every element
// must land within a small ULP distance of the exact result, or —
// when cancellation makes ULP distance meaningless — within a
// forward-error bound proportional to Σ|a·b| for that element. Both
// thresholds follow the standard summation error model: reordering a
// k-term accumulation perturbs the result by at most ~k·eps·Σ|terms|.

// fastULPBudget is the "N ULPs" of the fast-tier contract for
// well-conditioned elements.
const fastULPBudget = 256

// ulpDist32 returns the distance between a and b in units in the last
// place, treating the float32s as sign-magnitude integers (the usual
// monotone mapping). NaNs are infinitely far apart.
func ulpDist32(a, b float32) uint64 {
	if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
		return math.MaxUint64
	}
	ia := int64(math.Float32bits(a))
	ib := int64(math.Float32bits(b))
	if ia < 0x80000000 {
		ia = 0x80000000 - ia // negative floats: bits descend as value ascends
	} else {
		ia -= 0x80000000
		ia = -ia
	}
	if ib < 0x80000000 {
		ib = 0x80000000 - ib
	} else {
		ib -= 0x80000000
		ib = -ib
	}
	d := ia - ib
	if d < 0 {
		d = -d
	}
	return uint64(d)
}

// absSumBound returns the forward-error tolerance for one output
// element with |terms| magnitude sum s and k accumulation terms.
func absSumBound(s float64, k int) float64 {
	const eps32 = 1.0 / (1 << 23)
	return (float64(k) + 8) * eps32 * s
}

// checkFastVsExact asserts the fast result is ULP- or error-bounded
// against the exact result, element by element. mags[i] must hold
// Σ_p |a·b| for element i, computed in float64.
func checkFastVsExact(t *testing.T, name string, exact, fast []float32, mags []float64, k int) {
	t.Helper()
	for i := range exact {
		if ulpDist32(exact[i], fast[i]) <= fastULPBudget {
			continue
		}
		diff := math.Abs(float64(exact[i]) - float64(fast[i]))
		if diff <= absSumBound(mags[i], k) {
			continue
		}
		t.Fatalf("%s element %d: exact %v fast %v — %d ULPs apart, |diff| %g > bound %g",
			name, i, exact[i], fast[i], ulpDist32(exact[i], fast[i]), diff, absSumBound(mags[i], k))
	}
}

// gemmMags computes the per-element magnitude sums Σ|a·b| for A·B in
// float64 — the conditioning reference for the error bound.
func gemmMags(a, b []float32, m, k, n int) []float64 {
	mags := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := math.Abs(float64(a[i*k+p]))
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				mags[i*n+j] += av * math.Abs(float64(b[p*n+j]))
			}
		}
	}
	return mags
}

func requireFast(t testing.TB) {
	t.Helper()
	if !FastSupported() {
		t.Skip("fast tier unsupported: no AVX2+FMA (or noasm build)")
	}
}

// runTier runs f with the numerics tier pinned, restoring the
// previously requested tier afterwards.
func runTier(m Numerics, f func()) {
	old := SetNumerics(m)
	defer SetNumerics(old)
	f()
}

func TestGemmFastWithinULPsOfExact(t *testing.T) {
	requireFast(t)
	for _, s := range oracleShapes {
		m, k, n := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a, b := oraclePair(0xFA57, m, k, n)
			exact := make([]float32, m*n)
			fast := make([]float32, m*n)
			runTier(NumericsExact, func() { Gemm(exact, a.Data(), b.Data(), m, k, n) })
			runTier(NumericsFast, func() { Gemm(fast, a.Data(), b.Data(), m, k, n) })
			checkFastVsExact(t, "Gemm", exact, fast, gemmMags(a.Data(), b.Data(), m, k, n), k)

			// Aᵀ·B: reuse A as k'=m × m'=k.
			bTA := New(m, n)
			FillNormal(bTA, NewRNG(0xFA57^3), 0, 1)
			exTA := make([]float32, k*n)
			faTA := make([]float32, k*n)
			runTier(NumericsExact, func() { GemmTA(exTA, a.Data(), bTA.Data(), m, k, n) })
			runTier(NumericsFast, func() { GemmTA(faTA, a.Data(), bTA.Data(), m, k, n) })
			// Magnitudes via the materialized transpose.
			at := make([]float32, k*m)
			for p := 0; p < m; p++ {
				for i := 0; i < k; i++ {
					at[i*m+p] = a.Data()[p*k+i]
				}
			}
			checkFastVsExact(t, "GemmTA", exTA, faTA, gemmMags(at, bTA.Data(), k, m, n), m)

			bTB := New(n, k)
			FillNormal(bTB, NewRNG(0xFA57^9), 0, 1)
			exTB := make([]float32, m*n)
			faTB := make([]float32, m*n)
			runTier(NumericsExact, func() { GemmTB(exTB, a.Data(), bTB.Data(), m, k, n) })
			runTier(NumericsFast, func() { GemmTB(faTB, a.Data(), bTB.Data(), m, k, n) })
			bt := make([]float32, k*n)
			for j := 0; j < n; j++ {
				for p := 0; p < k; p++ {
					bt[p*n+j] = bTB.Data()[j*k+p]
				}
			}
			checkFastVsExact(t, "GemmTB", exTB, faTB, gemmMags(a.Data(), bt, m, k, n), k)
		})
	}
}

// FuzzGemmFastVsExact drives all three fast kernels against the exact
// tier on fuzz-chosen shapes and seeds, with the ULP/error-bound
// acceptance of the fast-tier contract.
func FuzzGemmFastVsExact(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(7), uint16(9))
	f.Add(uint64(2), uint8(5), uint8(4), uint16(300))
	f.Add(uint64(3), uint8(1), uint8(1), uint16(1))
	f.Add(uint64(4), uint8(16), uint8(13), uint16(257))
	f.Add(uint64(5), uint8(23), uint8(24), uint16(511))
	f.Fuzz(func(t *testing.T, seed uint64, mRaw, kRaw uint8, nRaw uint16) {
		requireFast(t)
		m := int(mRaw)%24 + 1
		k := int(kRaw)%24 + 1
		n := int(nRaw)%320 + 1
		a, b := oraclePair(seed, m, k, n)
		exact := make([]float32, m*n)
		fast := make([]float32, m*n)
		runTier(NumericsExact, func() { Gemm(exact, a.Data(), b.Data(), m, k, n) })
		runTier(NumericsFast, func() { Gemm(fast, a.Data(), b.Data(), m, k, n) })
		checkFastVsExact(t, "Gemm", exact, fast, gemmMags(a.Data(), b.Data(), m, k, n), k)

		bTA := New(m, n)
		FillNormal(bTA, NewRNG(seed^0x55), 0, 1)
		exTA := make([]float32, k*n)
		faTA := make([]float32, k*n)
		runTier(NumericsExact, func() { GemmTA(exTA, a.Data(), bTA.Data(), m, k, n) })
		runTier(NumericsFast, func() { GemmTA(faTA, a.Data(), bTA.Data(), m, k, n) })
		at := make([]float32, k*m)
		for p := 0; p < m; p++ {
			for i := 0; i < k; i++ {
				at[i*m+p] = a.Data()[p*k+i]
			}
		}
		checkFastVsExact(t, "GemmTA", exTA, faTA, gemmMags(at, bTA.Data(), k, m, n), m)

		bTB := New(n, k)
		FillNormal(bTB, NewRNG(seed^0xAA), 0, 1)
		exTB := make([]float32, m*n)
		faTB := make([]float32, m*n)
		runTier(NumericsExact, func() { GemmTB(exTB, a.Data(), bTB.Data(), m, k, n) })
		runTier(NumericsFast, func() { GemmTB(faTB, a.Data(), bTB.Data(), m, k, n) })
		bt := make([]float32, k*n)
		for j := 0; j < n; j++ {
			for p := 0; p < k; p++ {
				bt[p*n+j] = bTB.Data()[j*k+p]
			}
		}
		checkFastVsExact(t, "GemmTB", exTB, faTB, gemmMags(a.Data(), bt, m, k, n), k)
	})
}

// TestExactUnaffectedByFastToggle is the guard the determinism suites
// rely on: running the fast tier and switching back must leave the
// exact tier bit-identical to the committed oracles — no re-pinning.
func TestExactUnaffectedByFastToggle(t *testing.T) {
	defer SetNumerics(SetNumerics(NumericsExact))
	m, k, n := 17, 30, 259
	a, b := oraclePair(0xD15C, m, k, n)
	want := make([]float32, m*n)
	matMulRows(want, a.Data(), b.Data(), k, n, 0, m)

	before := make([]float32, m*n)
	Gemm(before, a.Data(), b.Data(), m, k, n)

	if FastSupported() {
		scratch := make([]float32, m*n)
		runTier(NumericsFast, func() { Gemm(scratch, a.Data(), b.Data(), m, k, n) })
	}
	SetNumerics(NumericsExact)

	after := make([]float32, m*n)
	Gemm(after, a.Data(), b.Data(), m, k, n)
	for i := range want {
		if math.Float32bits(after[i]) != math.Float32bits(want[i]) {
			t.Fatalf("exact tier drifted from the reference oracle at %d after a fast round-trip", i)
		}
		if math.Float32bits(after[i]) != math.Float32bits(before[i]) {
			t.Fatalf("exact tier changed across a fast round-trip at %d", i)
		}
	}
}

// TestFastTierWorkerInvariance: within the fast tier, results are
// still per-element deterministic — sharding across workers must not
// change a single bit (the same property the exact tier guarantees).
func TestFastTierWorkerInvariance(t *testing.T) {
	requireFast(t)
	defer SetNumerics(SetNumerics(NumericsFast))
	m, k, n := 33, 40, 513 // crosses matMulShardFlops
	a, b := oraclePair(0x5EED, m, k, n)
	bTA := New(m, n)
	FillNormal(bTA, NewRNG(0x5EED^1), 0, 1)
	bTB := New(n, k)
	FillNormal(bTB, NewRNG(0x5EED^2), 0, 1)

	var ref, refTA, refTB []float32
	for _, w := range []int{1, 4, 7} {
		got := make([]float32, m*n)
		gotTA := make([]float32, k*n)
		gotTB := make([]float32, m*n)
		withWorkers(w, func() {
			Gemm(got, a.Data(), b.Data(), m, k, n)
			GemmTA(gotTA, a.Data(), bTA.Data(), m, k, n)
			GemmTB(gotTB, a.Data(), bTB.Data(), m, k, n)
		})
		if ref == nil {
			ref, refTA, refTB = got, gotTA, gotTB
			continue
		}
		for i := range ref {
			if math.Float32bits(ref[i]) != math.Float32bits(got[i]) {
				t.Fatalf("fast Gemm differs between workers=1 and workers=%d at %d", w, i)
			}
			if math.Float32bits(refTB[i]) != math.Float32bits(gotTB[i]) {
				t.Fatalf("fast GemmTB differs between workers=1 and workers=%d at %d", w, i)
			}
		}
		for i := range refTA {
			if math.Float32bits(refTA[i]) != math.Float32bits(gotTA[i]) {
				t.Fatalf("fast GemmTA differs between workers=1 and workers=%d at %d", w, i)
			}
		}
	}
}

// TestConvFastTierMatchesComposition: the fused conv path and the
// materialized Im2Col+Gemm / GemmTB / GemmTA+Col2Im composition must
// agree bitwise *within* the fast tier, exactly as they do within the
// exact tier — both feed the same microkernels identical operand
// sequences. (The exact-tier version of this property is pinned by
// convgemm_test.go, which runs under both tiers in CI.)
func TestConvFastTierMatchesComposition(t *testing.T) {
	requireFast(t)
	defer SetNumerics(SetNumerics(NumericsFast))
	n, c, h, w, outC, kh, kw, stride, pad := 2, 3, 9, 9, 5, 3, 3, 1, 1
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	outArea := outH * outW
	k := c * kh * kw
	r := NewRNG(0xC04F)
	src := make([]float32, n*c*h*w)
	for i := range src {
		src[i] = float32(r.NormFloat64())
	}
	wd := make([]float32, outC*k)
	for i := range wd {
		wd[i] = float32(r.NormFloat64())
	}
	fused := make([]float32, n*outC*outArea)
	ConvGemmForward(fused, wd, src, n, c, h, w, outC, kh, kw, stride, pad)

	composed := make([]float32, n*outC*outArea)
	col := make([]float32, k*outArea)
	for i := 0; i < n; i++ {
		Im2Col(src[i*c*h*w:(i+1)*c*h*w], c, h, w, kh, kw, stride, pad, col)
		Gemm(composed[i*outC*outArea:(i+1)*outC*outArea], wd, col, outC, k, outArea)
	}
	for i := range fused {
		if math.Float32bits(fused[i]) != math.Float32bits(composed[i]) {
			t.Fatalf("fast fused forward differs from fast Im2Col+Gemm at %d: %v vs %v",
				i, fused[i], composed[i])
		}
	}
}

// TestFastTierLaneExact: a fast-tier element's bits must not depend on
// where its column sits in a panel. For every width n in 1..24, the
// columns of Gemm and GemmTA over B[:, :n] must equal the first n
// columns over B[:, :24] bit for bit, so a column that falls in the
// axpy kernels' scalar tail at one width and in a vector lane at
// another sees the same fused operation sequence. The stride-1 conv
// path relies on this: its extended output columns shift elements
// between the vector body and the tail.
func TestFastTierLaneExact(t *testing.T) {
	requireFast(t)
	defer SetNumerics(SetNumerics(NumericsFast))
	const m, k, full = 5, 11, 24 // k = 2 quads + a 3-row tail
	a, b := oraclePair(0x1A7E, m, k, full)
	at := New(k, m) // GemmTA's A operand
	FillNormal(at, NewRNG(0x1A7E^1), 0, 1)
	ref := make([]float32, m*full)
	refTA := make([]float32, m*full)
	Gemm(ref, a.Data(), b.Data(), m, k, full)
	GemmTA(refTA, at.Data(), b.Data(), k, m, full)
	for n := 1; n <= full; n++ {
		bn := make([]float32, k*n)
		for p := 0; p < k; p++ {
			copy(bn[p*n:(p+1)*n], b.Data()[p*full:])
		}
		got := make([]float32, m*n)
		gotTA := make([]float32, m*n)
		Gemm(got, a.Data(), bn, m, k, n)
		GemmTA(gotTA, at.Data(), bn, k, m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if math.Float32bits(got[i*n+j]) != math.Float32bits(ref[i*full+j]) {
					t.Fatalf("Gemm n=%d: element (%d,%d) = %v, want %v as at n=%d", n, i, j, got[i*n+j], ref[i*full+j], full)
				}
				if math.Float32bits(gotTA[i*n+j]) != math.Float32bits(refTA[i*full+j]) {
					t.Fatalf("GemmTA n=%d: element (%d,%d) = %v, want %v as at n=%d", n, i, j, gotTA[i*n+j], refTA[i*full+j], full)
				}
			}
		}
	}
}

// TestConvFastDWAxpyPinned: the axpy-batched fast-tier dW is (1)
// bit-deterministic and worker-invariant within the fast tier, and (2)
// ULP/error-bounded against the exact-tier oracle. It no longer claims
// bit-identity with the composed GemmTB — the axpy batching reorders
// each element's accumulation (see convSampleDWAxpy).
func TestConvFastDWAxpyPinned(t *testing.T) {
	requireFast(t)
	// k = 16·3·3 = 144 ≥ outArea = 64, so this shape takes the axpy
	// dispatch branch in convBackwardSamples.
	s := convShape{6, 16, 8, 8, 5, 3, 3, 1, 1}
	wd, src, dY := convOracleData(0xD27A, s)
	k := s.c * s.kh * s.kw
	wlen := s.outC * k
	outArea := ConvOutSize(s.h, s.kh, s.stride, s.pad) * ConvOutSize(s.w, s.kw, s.stride, s.pad)

	runBwd := func() []float32 {
		dX := make([]float32, s.n*s.c*s.h*s.w)
		chunks := make([]float32, s.n*wlen)
		ConvGemmBackward(dX, chunks, wd, src, dY, s.n, s.c, s.h, s.w, s.outC, s.kh, s.kw, s.stride, s.pad)
		dW := make([]float32, wlen)
		for i := 0; i < s.n; i++ {
			for j, v := range chunks[i*wlen : (i+1)*wlen] {
				dW[j] += v
			}
		}
		return dW
	}

	var exactDW []float32
	runTier(NumericsExact, func() { withWorkers(1, func() { exactDW = runBwd() }) })

	runTier(NumericsFast, func() {
		var ref []float32
		for _, w := range []int{1, 2, 4} {
			var got []float32
			withWorkers(w, func() { got = runBwd() })
			// Repeat at the same worker count: bit-determinism.
			var again []float32
			withWorkers(w, func() { again = runBwd() })
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(again[i]) {
					t.Fatalf("fast dW not deterministic at workers=%d, element %d", w, i)
				}
			}
			if ref == nil {
				ref = got
				continue
			}
			for i := range ref {
				if math.Float32bits(ref[i]) != math.Float32bits(got[i]) {
					t.Fatalf("fast dW differs between workers=1 and workers=%d at %d", w, i)
				}
			}
		}
		checkFastVsExact(t, "convDWAxpy", exactDW, ref, convDWMags(src, dY, s), s.n*outArea)
	})
}

func TestParseNumerics(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Numerics
		ok   bool
	}{
		{"exact", NumericsExact, true},
		{"fast", NumericsFast, true},
		{"", NumericsExact, false},
		{"FAST", NumericsExact, false},
		{"turbo", NumericsExact, false},
	} {
		got, err := ParseNumerics(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Fatalf("ParseNumerics(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	if NumericsExact.String() != "exact" || NumericsFast.String() != "fast" {
		t.Fatal("Numerics.String does not round-trip the canonical spellings")
	}
}

func TestSetNumericsClampsAndReports(t *testing.T) {
	orig := RequestedNumerics()
	defer SetNumerics(orig)
	SetNumerics(NumericsExact)
	if prev := SetNumerics(NumericsFast); prev != NumericsExact {
		t.Fatalf("SetNumerics returned %v, want exact", prev)
	}
	if RequestedNumerics() != NumericsFast {
		t.Fatal("requested tier not recorded")
	}
	// Active demotes to exact when unsupported; equals requested when
	// supported.
	want := NumericsExact
	if FastSupported() {
		want = NumericsFast
	}
	if ActiveNumerics() != want {
		t.Fatalf("ActiveNumerics = %v, want %v (FastSupported=%v)", ActiveNumerics(), want, FastSupported())
	}
	if prev := SetNumerics(Numerics(42)); prev != NumericsFast {
		t.Fatalf("SetNumerics returned %v, want fast", prev)
	}
	if RequestedNumerics() != NumericsExact {
		t.Fatal("unknown tier was not clamped to exact")
	}
}
