package nn

// Int8 quantized inference path (ROADMAP item 4).
//
// A QuantizedNetwork is an inference-only mirror of a trained float32
// Network: conv and linear layers carry int8 weights with symmetric
// per-row (per output channel) scales, activations are quantized
// per-tensor with a scale calibrated post-training, and the matrix
// work runs through the int8 kernel family in internal/tensor
// (Im2RowS8 + GemmS8TB, int32 accumulators). Everything the int8
// contract cannot express well — batch norm, ReLU, pooling, the
// residual add — runs in float32 on the dequantized activations, so
// only the GEMM-shaped 99% of the FLOPs moves to int8. The
// parameter-free float steps are the float layers themselves (QFloat,
// and the shared option-A shortcut in QBasicBlock).
//
// Determinism: integer accumulation is associative, so the int8 GEMMs
// are bit-identical across kernel tiers AND worker counts (a stronger
// contract than the float path's exact/fast split); the float fallback
// stages are element-wise serial loops. A QuantizedNetwork forward is
// therefore bit-deterministic at any worker count with no tier caveat.
//
// Memory: the int8 weight planes are shared, never written. Clones for
// concurrent serving share them (4x less weight traffic than float32),
// and internal/ftpm aliases them directly into an mmap'd model file.

import (
	"fmt"
	"math"

	"github.com/ftpim/ftpim/internal/tensor"
)

// QLayer is one layer of the quantized inference path.
type QLayer interface {
	// Forward runs the layer in inference mode. Outputs live in
	// layer-owned workspaces, valid until the next call.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// CloneQ returns an execution-independent copy: weight planes and
	// scales are shared (they are immutable), workspaces and scratch
	// are fresh.
	CloneQ() QLayer
}

// QuantizedNetwork is the int8 inference mirror of a Network. Build
// one with QuantizeNetwork (from a trained float model) or load one
// from an exported FTPM file via internal/ftpm.
type QuantizedNetwork struct {
	Layers []QLayer
}

// Forward runs the network in inference mode. The train flag exists
// only to satisfy the shared metrics.Forwarder signature; the
// quantized path has no training mode and panics if it is requested.
func (q *QuantizedNetwork) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		panic("nn: QuantizedNetwork is inference-only")
	}
	for _, l := range q.Layers {
		x = l.Forward(x)
	}
	return x
}

// NumParams returns the total stored parameter count (int8 weights,
// biases, and folded batch-norm affines) — the quantized analogue of
// Network.NumParams.
func (q *QuantizedNetwork) NumParams() int {
	n := 0
	var count func(l QLayer)
	count = func(l QLayer) {
		switch t := l.(type) {
		case *QConv2D:
			n += len(t.WQ) + len(t.Bias)
		case *QLinear:
			n += len(t.WQ) + len(t.Bias)
		case *QBatchNorm:
			n += len(t.Scale) + len(t.Shift)
		case *QBasicBlock:
			count(t.Conv1)
			count(t.BN1)
			count(t.Conv2)
			count(t.BN2)
		}
	}
	for _, l := range q.Layers {
		count(l)
	}
	return n
}

// Clone returns a copy safe for concurrent use: immutable weight
// planes and scales are shared, per-layer workspaces are fresh.
func (q *QuantizedNetwork) Clone() *QuantizedNetwork {
	out := &QuantizedNetwork{Layers: make([]QLayer, len(q.Layers))}
	for i, l := range q.Layers {
		out.Layers[i] = l.CloneQ()
	}
	return out
}

// QConv2D is the int8 convolution: weights (OutC, InC·KH·KW) as int8
// rows with per-row scales, input activations quantized per-tensor
// with the calibrated XScale. Per sample, the input plane is
// quantized once, lowered patch-major (Im2RowS8), multiplied in int32
// (GemmS8TB: m=OutC, k=InC·KH·KW, n=outArea), and dequantized with
// bias into the float output plane.
type QConv2D struct {
	InC, OutC   int
	KH, KW      int
	Stride, Pad int
	WQ          []int8    // (OutC, InC·KH·KW) row-major; may alias an mmap'd file
	WScale      []float32 // per-row weight scales, len OutC
	Bias        []float32 // len OutC, nil when the float layer had none
	XScale      float32   // calibrated per-tensor input scale

	maxAbs  float32 // calibration accumulator (QuantizeNetwork only)
	xq      []int8  // quantized input plane scratch
	patches []int8  // outArea × k patch panel scratch
	acc     []int32 // OutC × outArea accumulator scratch
	ws      tensor.Workspace
}

// NewQConv2D builds a quantized conv layer from its stored planes
// (the FTPM loader's constructor). wq/wScale/bias are retained, not
// copied.
func NewQConv2D(inC, outC, kh, kw, stride, pad int, wq []int8, wScale, bias []float32, xScale float32) *QConv2D {
	return &QConv2D{
		InC: inC, OutC: outC, KH: kh, KW: kw, Stride: stride, Pad: pad,
		WQ: wq, WScale: wScale, Bias: bias, XScale: xScale,
	}
}

// Forward computes the int8 convolution for an NCHW batch.
func (l *QConv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != l.InC {
		panic(fmt.Sprintf("nn: QConv2D input shape %v, want (N,%d,H,W)", x.Shape(), l.InC))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	outH := tensor.ConvOutSize(h, l.KH, l.Stride, l.Pad)
	outW := tensor.ConvOutSize(w, l.KW, l.Stride, l.Pad)
	outArea := outH * outW
	k := l.InC * l.KH * l.KW
	plane := l.InC * h * w
	out := l.ws.Get(0, n, l.OutC, outH, outW)
	if len(l.xq) < plane {
		l.xq = make([]int8, plane)
	}
	if len(l.patches) < outArea*k {
		l.patches = make([]int8, outArea*k)
	}
	if len(l.acc) < l.OutC*outArea {
		l.acc = make([]int32, l.OutC*outArea)
	}
	xd, od := x.Data(), out.Data()
	xs := l.XScale
	for i := 0; i < n; i++ {
		tensor.QuantizeLinear(l.xq[:plane], xd[i*plane:(i+1)*plane], xs)
		tensor.Im2RowS8(l.patches[:outArea*k], l.xq[:plane], l.InC, h, w,
			l.KH, l.KW, l.Stride, l.Pad, outH, outW)
		tensor.GemmS8TB(l.acc[:l.OutC*outArea], l.WQ, l.patches[:outArea*k],
			l.OutC, k, outArea)
		base := i * l.OutC * outArea
		for oc := 0; oc < l.OutC; oc++ {
			s := l.WScale[oc] * xs
			var b float32
			if l.Bias != nil {
				b = l.Bias[oc]
			}
			arow := l.acc[oc*outArea : (oc+1)*outArea]
			orow := od[base+oc*outArea : base+(oc+1)*outArea]
			for j, v := range arow {
				orow[j] = float32(v)*s + b
			}
		}
	}
	return out
}

// CloneQ shares the weight planes and scales, fresh scratch.
func (l *QConv2D) CloneQ() QLayer {
	return NewQConv2D(l.InC, l.OutC, l.KH, l.KW, l.Stride, l.Pad,
		l.WQ, l.WScale, l.Bias, l.XScale)
}

// observe feeds one calibration batch's input into the running
// max-abs estimate.
func (l *QConv2D) observe(x *tensor.Tensor) {
	if m := tensor.MaxAbs(x.Data()); m > l.maxAbs {
		l.maxAbs = m
	}
}

// QLinear is the int8 fully connected layer: y = dequant(xq·WQᵀ) + b.
type QLinear struct {
	In, Out int
	WQ      []int8    // (Out, In) row-major; may alias an mmap'd file
	WScale  []float32 // per-row scales, len Out
	Bias    []float32 // len Out, nil when absent
	XScale  float32

	maxAbs float32
	xq     []int8
	acc    []int32
	ws     tensor.Workspace
}

// NewQLinear builds a quantized linear layer from its stored planes.
func NewQLinear(in, out int, wq []int8, wScale, bias []float32, xScale float32) *QLinear {
	return &QLinear{In: in, Out: out, WQ: wq, WScale: wScale, Bias: bias, XScale: xScale}
}

// Forward computes the int8 matmul for an (N, In) batch.
func (l *QLinear) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: QLinear input shape %v, want (N,%d)", x.Shape(), l.In))
	}
	n := x.Dim(0)
	out := l.ws.Get(0, n, l.Out)
	if len(l.xq) < n*l.In {
		l.xq = make([]int8, n*l.In)
	}
	if len(l.acc) < n*l.Out {
		l.acc = make([]int32, n*l.Out)
	}
	xs := l.XScale
	tensor.QuantizeLinear(l.xq[:n*l.In], x.Data(), xs)
	tensor.GemmS8TB(l.acc[:n*l.Out], l.xq[:n*l.In], l.WQ, n, l.In, l.Out)
	od := out.Data()
	for i := 0; i < n; i++ {
		arow := l.acc[i*l.Out : (i+1)*l.Out]
		orow := od[i*l.Out : (i+1)*l.Out]
		for j, v := range arow {
			orow[j] = float32(v) * l.WScale[j] * xs
			if l.Bias != nil {
				orow[j] += l.Bias[j]
			}
		}
	}
	return out
}

// CloneQ shares the weight planes and scales, fresh scratch.
func (l *QLinear) CloneQ() QLayer {
	return NewQLinear(l.In, l.Out, l.WQ, l.WScale, l.Bias, l.XScale)
}

func (l *QLinear) observe(x *tensor.Tensor) {
	if m := tensor.MaxAbs(x.Data()); m > l.maxAbs {
		l.maxAbs = m
	}
}

// QBatchNorm is inference batch norm folded to a per-channel affine:
// y = Scale[c]·x + Shift[c], with Scale = γ/√(var+ε) and
// Shift = β − mean·Scale precomputed from the float layer's running
// statistics at quantization time.
type QBatchNorm struct {
	C            int
	Scale, Shift []float32
	ws           tensor.Workspace
}

// NewQBatchNorm builds a folded batch-norm layer (slices retained).
func NewQBatchNorm(scale, shift []float32) *QBatchNorm {
	return &QBatchNorm{C: len(scale), Scale: scale, Shift: shift}
}

// Forward applies the per-channel affine over an NCHW batch.
func (l *QBatchNorm) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != l.C {
		panic(fmt.Sprintf("nn: QBatchNorm input shape %v, want (N,%d,H,W)", x.Shape(), l.C))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	area := h * w
	out := l.ws.Get(0, x.Shape()...)
	xd, od := x.Data(), out.Data()
	for i := 0; i < n; i++ {
		for c := 0; c < l.C; c++ {
			s, b := l.Scale[c], l.Shift[c]
			base := (i*l.C + c) * area
			for j := 0; j < area; j++ {
				od[base+j] = s*xd[base+j] + b
			}
		}
	}
	return out
}

// CloneQ shares the affine, fresh workspace.
func (l *QBatchNorm) CloneQ() QLayer { return NewQBatchNorm(l.Scale, l.Shift) }

// QFloat runs a parameter-free float layer — ReLU, GlobalAvgPool2D or
// Flatten — in inference mode as a step of the quantized path.
type QFloat struct {
	Layer Layer
}

// Forward runs the float layer with train=false.
func (l *QFloat) Forward(x *tensor.Tensor) *tensor.Tensor { return l.Layer.Forward(x, false) }

// CloneQ wraps a fresh copy of the float layer.
func (l *QFloat) CloneQ() QLayer { return &QFloat{Layer: l.Layer.CloneLayer()} }

// QBasicBlock is the quantized residual block: int8 convs, folded BN,
// float ReLUs and residual add, with the float BasicBlock's shortcut.
type QBasicBlock struct {
	Conv1 *QConv2D
	BN1   *QBatchNorm
	Conv2 *QConv2D
	BN2   *QBatchNorm

	InC, OutC, Stride int

	relu1, relu2 ReLU
	ws           tensor.Workspace // slot 0: shortcut out
}

// NewQBasicBlock assembles a quantized residual block.
func NewQBasicBlock(conv1 *QConv2D, bn1 *QBatchNorm, conv2 *QConv2D, bn2 *QBatchNorm, inC, outC, stride int) *QBasicBlock {
	return &QBasicBlock{
		Conv1: conv1, BN1: bn1, Conv2: conv2, BN2: bn2,
		InC: inC, OutC: outC, Stride: stride,
	}
}

// Forward runs the block: relu(BN2(Conv2(relu(BN1(Conv1 x)))) + shortcut).
func (b *QBasicBlock) Forward(x *tensor.Tensor) *tensor.Tensor {
	h := b.Conv1.Forward(x)
	h = b.BN1.Forward(h)
	h = b.relu1.Forward(h, false)
	h = b.Conv2.Forward(h)
	h = b.BN2.Forward(h)
	h.AddInPlace(optionAShortcut(&b.ws, x, b.InC, b.OutC, b.Stride))
	return b.relu2.Forward(h, false)
}

// CloneQ deep-clones the block structure, sharing the weight planes.
func (b *QBasicBlock) CloneQ() QLayer {
	return NewQBasicBlock(
		b.Conv1.CloneQ().(*QConv2D), b.BN1.CloneQ().(*QBatchNorm),
		b.Conv2.CloneQ().(*QConv2D), b.BN2.CloneQ().(*QBatchNorm),
		b.InC, b.OutC, b.Stride)
}

// QIdentity passes its input through — the quantized image of layers
// that are a no-op at inference (Dropout).
type QIdentity struct{}

// NewQIdentity returns the identity layer.
func NewQIdentity() *QIdentity { return &QIdentity{} }

// Forward returns x.
func (QIdentity) Forward(x *tensor.Tensor) *tensor.Tensor { return x }

// CloneQ returns the identity layer.
func (QIdentity) CloneQ() QLayer { return QIdentity{} }

// QuantizeNetwork builds the int8 inference mirror of a trained
// network. Weights are quantized symmetrically per row (per output
// channel) immediately; activation scales are calibrated by running
// the calibration batches through the FLOAT network in inference mode
// and recording the max-abs input seen at every quantized layer —
// post-training calibration, no retraining. At least one batch is
// required; more batches tighten the scales.
//
// The float network is not mutated (inference-mode forwards only),
// but its layer workspaces are clobbered like any forward pass.
func QuantizeNetwork(net *Network, calib []*tensor.Tensor) (*QuantizedNetwork, error) {
	if net == nil {
		return nil, fmt.Errorf("nn: QuantizeNetwork: nil network")
	}
	if len(calib) == 0 {
		return nil, fmt.Errorf("nn: QuantizeNetwork needs at least one calibration batch")
	}
	fls := flattenLayers(net.Body.Layers)
	q := &QuantizedNetwork{Layers: make([]QLayer, len(fls))}
	for i, fl := range fls {
		ql, err := quantizeLayer(fl)
		if err != nil {
			return nil, err
		}
		q.Layers[i] = ql
	}
	for _, batch := range calib {
		x := batch
		for i, fl := range fls {
			x = calibStep(fl, q.Layers[i], x)
		}
	}
	for _, ql := range q.Layers {
		finalizeScales(ql)
	}
	return q, nil
}

// flattenLayers expands nested Sequentials into one flat layer list.
func flattenLayers(ls []Layer) []Layer {
	var out []Layer
	for _, l := range ls {
		if s, ok := l.(*Sequential); ok {
			out = append(out, flattenLayers(s.Layers)...)
			continue
		}
		out = append(out, l)
	}
	return out
}

// quantizeLayer maps one float layer to its quantized mirror,
// quantizing weights but leaving activation scales for calibration.
func quantizeLayer(fl Layer) (QLayer, error) {
	switch f := fl.(type) {
	case *Conv2D:
		return quantizeConv(f), nil
	case *Linear:
		wq := make([]int8, f.Out*f.In)
		ws := make([]float32, f.Out)
		tensor.QuantizeRows(wq, ws, f.Weight.W.Data(), f.Out, f.In)
		var bias []float32
		if f.Bias != nil {
			bias = append([]float32(nil), f.Bias.W.Data()...)
		}
		return NewQLinear(f.In, f.Out, wq, ws, bias, 0), nil
	case *BatchNorm2D:
		return foldBatchNorm(f), nil
	case *ReLU, *GlobalAvgPool2D, *Flatten:
		return &QFloat{Layer: fl.CloneLayer()}, nil
	case *Dropout:
		return NewQIdentity(), nil
	case *BasicBlock:
		return NewQBasicBlock(
			quantizeConv(f.Conv1), foldBatchNorm(f.BN1),
			quantizeConv(f.Conv2), foldBatchNorm(f.BN2),
			f.inC, f.outC, f.stride), nil
	default:
		return nil, fmt.Errorf("nn: QuantizeNetwork: unsupported layer type %T", fl)
	}
}

func quantizeConv(f *Conv2D) *QConv2D {
	k := f.InC * f.KH * f.KW
	wq := make([]int8, f.OutC*k)
	ws := make([]float32, f.OutC)
	tensor.QuantizeRows(wq, ws, f.Weight.W.Data(), f.OutC, k)
	var bias []float32
	if f.Bias != nil {
		bias = append([]float32(nil), f.Bias.W.Data()...)
	}
	return NewQConv2D(f.InC, f.OutC, f.KH, f.KW, f.Stride, f.Pad, wq, ws, bias, 0)
}

// foldBatchNorm precomputes the inference affine from running stats.
func foldBatchNorm(bn *BatchNorm2D) *QBatchNorm {
	scale := make([]float32, bn.C)
	shift := make([]float32, bn.C)
	gd, bd := bn.Gamma.W.Data(), bn.Beta.W.Data()
	rm, rv := bn.RunningMean.Data(), bn.RunningVar.Data()
	for c := 0; c < bn.C; c++ {
		inv := float32(1 / math.Sqrt(float64(rv[c])+bn.Eps))
		scale[c] = gd[c] * inv
		shift[c] = bd[c] - rm[c]*scale[c]
	}
	return NewQBatchNorm(scale, shift)
}

// calibStep advances one float layer in inference mode while feeding
// quantized-layer input observations. BasicBlock runs as its head and
// tail halves so its second conv's input can be observed.
func calibStep(fl Layer, ql QLayer, x *tensor.Tensor) *tensor.Tensor {
	switch f := fl.(type) {
	case *Conv2D:
		ql.(*QConv2D).observe(x)
	case *Linear:
		ql.(*QLinear).observe(x)
	case *BasicBlock:
		qb := ql.(*QBasicBlock)
		qb.Conv1.observe(x)
		h := f.head(x, false)
		qb.Conv2.observe(h)
		return f.tail(x, h, false)
	}
	return fl.Forward(x, false)
}

// finalizeScales converts accumulated max-abs observations into
// activation scales.
func finalizeScales(ql QLayer) {
	switch l := ql.(type) {
	case *QConv2D:
		l.XScale = tensor.ScaleFor(l.maxAbs)
	case *QLinear:
		l.XScale = tensor.ScaleFor(l.maxAbs)
	case *QBasicBlock:
		l.Conv1.XScale = tensor.ScaleFor(l.Conv1.maxAbs)
		l.Conv2.XScale = tensor.ScaleFor(l.Conv2.maxAbs)
	}
}
