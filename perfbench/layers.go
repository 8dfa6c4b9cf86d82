package main

import (
	"math/rand/v2"
	"time"

	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/tensor"
)

// Per-call timings of single-layer calls at the model's own shapes.
// They run at tensor.SetWorkers(1), so they measure kernels, not
// scheduling.

// timeMs calls f until it has run at least minReps times and for at
// least minDur, and returns the median call time in milliseconds.
// before, when set, runs untimed ahead of every call.
func timeMs(before, f func()) float64 {
	const minReps, minDur = 5, 15 * time.Millisecond
	var ms []float64
	total := time.Duration(0)
	for len(ms) < minReps || total < minDur {
		if before != nil {
			before()
		}
		t0 := time.Now()
		f()
		d := time.Since(t0)
		total += d
		ms = append(ms, float64(d.Nanoseconds())/1e6)
	}
	return median(ms)
}

func randFloats(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64())
	}
	return out
}

// convShape is one convolution of the model with its input size.
type convShape struct {
	c, h, w, outC, kh, kw, stride, pad int
	weights                            []float32
}

func (s convShape) out() (int, int) {
	return tensor.ConvOutSize(s.h, s.kh, s.stride, s.pad), tensor.ConvOutSize(s.w, s.kw, s.stride, s.pad)
}

// actShape is the C×H×W shape of an activation a batch norm and a ReLU
// see.
type actShape struct{ c, h, w int }

// modelShapes walks the float network from an h×w input and returns
// its convolutions and the activation shapes after each batch norm.
func modelShapes(net *nn.Network, h, w int) (convs []convShape, acts []actShape) {
	add := func(c *nn.Conv2D) {
		s := convShape{c.InC, h, w, c.OutC, c.KH, c.KW, c.Stride, c.Pad, c.Weight.W.Data()}
		convs = append(convs, s)
		h, w = s.out()
		acts = append(acts, actShape{c.OutC, h, w})
	}
	for _, l := range net.Body.Layers {
		switch l := l.(type) {
		case *nn.Conv2D:
			add(l)
		case *nn.BasicBlock:
			add(l.Conv1)
			add(l.Conv2)
		}
	}
	return convs, acts
}

// qconvs lists the int8 convolutions of the quantized network with
// their input sizes.
func qconvs(q *nn.QuantizedNetwork, h, w int) (layers []*nn.QConv2D, in [][2]int) {
	add := func(c *nn.QConv2D) {
		layers = append(layers, c)
		in = append(in, [2]int{h, w})
		h, w = tensor.ConvOutSize(h, c.KH, c.Stride, c.Pad), tensor.ConvOutSize(w, c.KW, c.Stride, c.Pad)
	}
	for _, l := range q.Layers {
		switch l := l.(type) {
		case *nn.QConv2D:
			add(l)
		case *nn.QBasicBlock:
			add(l.Conv1)
			add(l.Conv2)
		}
	}
	return layers, in
}

// floatKernels measures the float layer kernels on both tiers at the
// training batch size and the whole-network forward of net.
func floatKernels(net *nn.Network, x *tensor.Tensor, res *result) {
	prevW := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prevW)
	rng := rand.New(rand.NewPCG(7, 11))
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	convs, acts := modelShapes(net, h, w)

	fwd := map[string]float64{}
	for _, tier := range []tensor.Numerics{tensor.NumericsExact, tensor.NumericsFast} {
		name, restore := useTier(tier)
		var f, b, lower float64
		for _, s := range convs {
			oh, ow := s.out()
			k := s.c * s.kh * s.kw
			src := randFloats(rng, n*s.c*s.h*s.w)
			dst := make([]float32, n*s.outC*oh*ow)
			panels := make([]float32, k*n*oh*ow)
			dY := randFloats(rng, len(dst))
			dX := make([]float32, len(src))
			chunks := make([]float32, n*s.outC*k)
			f += timeMs(nil, func() {
				tensor.ConvGemmForward(dst, s.weights, src, n, s.c, s.h, s.w, s.outC, s.kh, s.kw, s.stride, s.pad)
			})
			lower += timeMs(nil, func() {
				tensor.Im2ColPanels(src, n, s.c, s.h, s.w, s.kh, s.kw, s.stride, s.pad, panels)
			})
			b += timeMs(func() { clear(dX) }, func() {
				tensor.ConvGemmBackward(dX, chunks, s.weights, src, dY, n, s.c, s.h, s.w, s.outC, s.kh, s.kw, s.stride, s.pad)
			})
		}
		fwd[name] = timeMs(nil, func() { net.Forward(x, false) })
		res.set("tensor.conv_fwd_ms."+name, f)
		res.set("tensor.conv_bwd_ms."+name, b)
		res.set("tensor.lowering_share."+name, lower/f)
		restore()
	}
	res.set("tensor.fast_speedup.conv_fwd", res.metrics["tensor.conv_fwd_ms.exact"]/res.metrics["tensor.conv_fwd_ms.fast"])
	res.set("nn.fast_speedup.forward", fwd["exact"]/fwd["fast"])

	var bnMs, reluMs float64
	for _, a := range acts {
		in := tensor.FromSlice(randFloats(rng, n*a.c*a.h*a.w), n, a.c, a.h, a.w)
		bn, relu := nn.NewBatchNorm2D("bench", a.c), nn.NewReLU()
		bnMs += timeMs(nil, func() { bn.Forward(in, true) })
		reluMs += timeMs(nil, func() { relu.Forward(in, true) })
	}
	res.set("nn.bn_fwd_ms", bnMs)
	res.set("nn.relu_fwd_ms", reluMs)

	out := net.Forward(x, false)
	logits := tensor.FromSlice(append([]float32(nil), out.Data()...), out.Shape()...)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.IntN(out.Dim(1))
	}
	var ws tensor.Workspace
	res.set("nn.loss_ms", timeMs(nil, func() { nn.SoftmaxCrossEntropyWS(&ws, logits, labels) }))
}

// int8Kernels measures the int8 convolution kernels per batch of b
// images (they run per image inside QConv2D) and the quantized forward
// at batch b.
func int8Kernels(q *nn.QuantizedNetwork, x *tensor.Tensor, res *result) {
	prevW := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prevW)
	rng := rand.New(rand.NewPCG(13, 17))
	b, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	layers, in := qconvs(q, h, w)
	var gemm, im2row, conv float64
	for i, l := range layers {
		lh, lw := in[i][0], in[i][1]
		oh, ow := tensor.ConvOutSize(lh, l.KH, l.Stride, l.Pad), tensor.ConvOutSize(lw, l.KW, l.Stride, l.Pad)
		k := l.InC * l.KH * l.KW
		xq := make([]int8, l.InC*lh*lw)
		for j := range xq {
			xq[j] = int8(rng.IntN(255) - 127)
		}
		patches := make([]int8, oh*ow*k)
		acc := make([]int32, l.OutC*oh*ow)
		im2row += timeMs(nil, func() { tensor.Im2RowS8(patches, xq, l.InC, lh, lw, l.KH, l.KW, l.Stride, l.Pad, oh, ow) })
		gemm += timeMs(nil, func() { tensor.GemmS8TB(acc, l.WQ, patches, l.OutC, k, oh*ow) })
		one := tensor.FromSlice(randFloats(rng, l.InC*lh*lw), 1, l.InC, lh, lw)
		lc := l.CloneQ()
		conv += timeMs(nil, func() { lc.Forward(one) })
	}
	res.set("tensor.gemm_s8_ms", gemm*float64(b))
	res.set("tensor.im2row_s8_share", im2row/conv)
	qc := q.Clone()
	res.set("nn.qfwd_ms", timeMs(nil, func() { qc.Forward(x, false) }))
}
