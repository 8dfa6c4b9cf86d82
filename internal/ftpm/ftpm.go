// Package ftpm is the exported single-file model format: an int8
// quantized network plus its architecture, scales, and provenance in
// one mmap-able file.
//
// FTPM reuses the hardened section container from internal/ckpt (same
// wire discipline: magic, version, sorted sections, per-section
// CRC-32) under its own magic 'FTPM'. The ckpt checkpoint format
// snapshots a float training run mid-flight; FTPM is the deployment
// artifact — inference-only, quantized, write-once.
//
// The section count in the container is hard-bounded (64), so FTPM
// does NOT use one section per layer (a ResNet-32 has 31 weighted
// layers and would overflow). Instead it consolidates:
//
//	"arch"    binary layer list (kinds, shapes, activation scales)
//	"weights" every int8 weight plane, concatenated in layer order
//	"scales"  every per-row weight scale, float32 LE, layer order
//	"biases"  every bias vector, float32 LE, layer order
//	"bn"      every folded batch-norm affine (scale then shift), layer order
//	"meta"    JSON provenance (model/dataset/accuracies)
//
// Layer order fully determines every blob offset, so decode walks one
// cursor per blob and requires each to land exactly at its blob's end.
//
// Zero-copy contract: Decode aliases the "weights" payload — the
// network's int8 planes point INTO the input buffer (an mmap'd region
// under Load). int8 has alignment 1, so the cast is always valid. The
// float32 blobs are small (per-channel, not per-weight) and their
// payload offsets carry no alignment guarantee, so they are decoded
// into fresh slices. Consequences: the mapped file must outlive the
// network (Model.Close unmaps — drop the network first), and the
// weights are immutable — the mapping is PROT_READ, so a stray write
// faults instead of corrupting the model. Fault-injection (defect
// eval) stays on the float path, which owns its planes.
package ftpm

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"unsafe"

	"github.com/ftpim/ftpim/internal/ckpt"
	"github.com/ftpim/ftpim/internal/nn"
)

// FormatVersion is the FTPM container version.
const FormatVersion = 1

// FormatName is the human-readable format identifier surfaced by
// `ftpim version` and /v1/healthz.
const FormatName = "ftpm-v1"

// format instantiates the shared ckpt section container for FTPM.
var format = ckpt.Format{Magic: [4]byte{'F', 'T', 'P', 'M'}, Version: FormatVersion, Tag: "ftpm"}

// Decoder hardening bounds: dimensions in the arch section are
// validated against these before any multiplication, so hostile files
// cannot overflow size arithmetic or demand huge allocations.
const (
	maxLayers = 1024
	maxDim    = 1 << 16
)

// Meta is the provenance block stored alongside the weights.
type Meta struct {
	Model    string  `json:"model"`               // e.g. "resnet8"
	Dataset  string  `json:"dataset"`             // e.g. "repro"
	Classes  int     `json:"classes,omitempty"`   // output classes
	FloatAcc float64 `json:"float_acc,omitempty"` // float32 top-1 at export
	QuantAcc float64 `json:"quant_acc,omitempty"` // int8 top-1 at export
	Created  string  `json:"created,omitempty"`   // RFC 3339, informational
}

// archLayer is one layer of the topology, the in-memory form of one
// arch-section record. Blob offsets are not stored: decode derives
// them from the dims, walking each blob with a cursor in layer order.
type archLayer struct {
	Kind   string
	InC    int
	OutC   int
	KH     int
	KW     int
	Stride int
	Pad    int
	In     int
	Out    int
	C      int
	Bias   bool
	XScale float32
	// Sub is a residual block's internal sequence: conv, bn, conv, bn.
	Sub []archLayer
}

// The arch section is a fixed little-endian binary encoding rather
// than JSON: cold start is the format's reason to exist, and profiling
// showed reflective JSON decoding of the layer list dominating Load
// (~75% of its time on a ResNet-20). Layout: u32 layer count, then per
// layer a kind byte followed by that kind's fields (u32 dims, a 0/1
// bias byte, f32 activation scale; blocks carry a sub-count byte and
// nested records). The encoding is canonical — exactly one byte string
// per network — which the loader enforces (bias bytes must be 0 or 1,
// sub-count must be 4, no trailing bytes) so decode∘encode stays the
// identity the fuzz harness pins.
const (
	kindConv byte = iota + 1
	kindLinear
	kindBN
	kindReLU
	kindGAP
	kindFlatten
	kindIdentity
	kindBlock
)

func marshalArch(layers []archLayer) ([]byte, error) {
	dst := binary.LittleEndian.AppendUint32(nil, uint32(len(layers)))
	var err error
	for _, al := range layers {
		if dst, err = appendArchLayer(dst, al); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

func appendArchLayer(dst []byte, al archLayer) ([]byte, error) {
	switch al.Kind {
	case "conv":
		dst = append(dst, kindConv)
		dst = appendU32s(dst, al.InC, al.OutC, al.KH, al.KW, al.Stride, al.Pad)
		dst = append(dst, boolByte(al.Bias))
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(al.XScale))
	case "linear":
		dst = append(dst, kindLinear)
		dst = appendU32s(dst, al.In, al.Out)
		dst = append(dst, boolByte(al.Bias))
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(al.XScale))
	case "bn":
		dst = append(dst, kindBN)
		dst = appendU32s(dst, al.C)
	case "relu":
		dst = append(dst, kindReLU)
	case "gap":
		dst = append(dst, kindGAP)
	case "flatten":
		dst = append(dst, kindFlatten)
	case "identity":
		dst = append(dst, kindIdentity)
	case "block":
		dst = append(dst, kindBlock)
		dst = appendU32s(dst, al.InC, al.OutC, al.Stride)
		dst = append(dst, byte(len(al.Sub)))
		var err error
		for _, sl := range al.Sub {
			if dst, err = appendArchLayer(dst, sl); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("ftpm: unknown layer kind %q", al.Kind)
	}
	return dst, nil
}

func appendU32s(dst []byte, vs ...int) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// archReader walks the arch section with a sticky truncation flag, so
// record parsing reads straight through and checks once per layer.
type archReader struct {
	b    []byte
	off  int
	fail bool
}

func (r *archReader) u8() byte {
	if r.off >= len(r.b) {
		r.fail = true
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *archReader) u32() int {
	if r.off+4 > len(r.b) {
		r.fail = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return int(v)
}

func (r *archReader) f32() float32 {
	return math.Float32frombits(uint32(r.u32()))
}

// bool reads a canonical 0/1 byte; any other value is corruption (and
// would break the decode∘encode identity).
func (r *archReader) bool() bool {
	v := r.u8()
	if v > 1 {
		r.fail = true
	}
	return v == 1
}

func readArchLayer(r *archReader, allowBlock bool) (archLayer, error) {
	var al archLayer
	switch kind := r.u8(); kind {
	case kindConv:
		al = archLayer{Kind: "conv", InC: r.u32(), OutC: r.u32(), KH: r.u32(),
			KW: r.u32(), Stride: r.u32(), Pad: r.u32(), Bias: r.bool(), XScale: r.f32()}
	case kindLinear:
		al = archLayer{Kind: "linear", In: r.u32(), Out: r.u32(), Bias: r.bool(), XScale: r.f32()}
	case kindBN:
		al = archLayer{Kind: "bn", C: r.u32()}
	case kindReLU:
		al = archLayer{Kind: "relu"}
	case kindGAP:
		al = archLayer{Kind: "gap"}
	case kindFlatten:
		al = archLayer{Kind: "flatten"}
	case kindIdentity:
		al = archLayer{Kind: "identity"}
	case kindBlock:
		if !allowBlock {
			return al, fmt.Errorf("ftpm: nested block")
		}
		al = archLayer{Kind: "block", InC: r.u32(), OutC: r.u32(), Stride: r.u32()}
		if n := r.u8(); !r.fail && n != 4 {
			return al, fmt.Errorf("ftpm: block sub-count %d, want 4", n)
		}
		for i := 0; i < 4 && !r.fail; i++ {
			sl, err := readArchLayer(r, false)
			if err != nil {
				return al, err
			}
			al.Sub = append(al.Sub, sl)
		}
	default:
		return al, fmt.Errorf("ftpm: unknown layer kind %d", kind)
	}
	if r.fail {
		return al, fmt.Errorf("ftpm: truncated arch section")
	}
	return al, nil
}

func unmarshalArch(b []byte) ([]archLayer, error) {
	r := &archReader{b: b}
	n := r.u32()
	if r.fail || n < 1 || n > maxLayers {
		return nil, fmt.Errorf("ftpm: implausible layer count %d", n)
	}
	layers := make([]archLayer, 0, n)
	for i := 0; i < n; i++ {
		al, err := readArchLayer(r, true)
		if err != nil {
			return nil, err
		}
		layers = append(layers, al)
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("ftpm: %d trailing bytes in arch section", len(b)-r.off)
	}
	return layers, nil
}

// blobs accumulates the consolidated sections during encode and walks
// them with cursors during decode.
type blobs struct {
	weights                 []int8
	scales                  []float32
	biases                  []float32
	bn                      []float32
	wOff, sOff, bOff, bnOff int
}

// Encode serializes a calibrated quantized network into one FTPM
// container. The network must come out of nn.QuantizeNetwork (or an
// FTPM decode): every conv/linear layer needs a positive activation
// scale.
func Encode(q *nn.QuantizedNetwork, meta Meta) ([]byte, error) {
	if q == nil || len(q.Layers) == 0 {
		return nil, fmt.Errorf("ftpm: empty network")
	}
	if len(q.Layers) > maxLayers {
		return nil, fmt.Errorf("ftpm: %d layers exceeds limit %d", len(q.Layers), maxLayers)
	}
	var layers []archLayer
	var bl blobs
	for _, l := range q.Layers {
		al, err := encodeLayer(l, &bl)
		if err != nil {
			return nil, err
		}
		layers = append(layers, al)
	}
	archBin, err := marshalArch(layers)
	if err != nil {
		return nil, err
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("ftpm: encode meta: %w", err)
	}
	return ckpt.EncodeContainer(format, map[string][]byte{
		"arch":    archBin,
		"weights": bytesOfS8(bl.weights),
		"scales":  appendF32(nil, bl.scales),
		"biases":  appendF32(nil, bl.biases),
		"bn":      appendF32(nil, bl.bn),
		"meta":    metaJSON,
	})
}

func encodeLayer(l nn.QLayer, bl *blobs) (archLayer, error) {
	switch t := l.(type) {
	case *nn.QConv2D:
		if t.XScale <= 0 {
			return archLayer{}, fmt.Errorf("ftpm: conv layer not calibrated (XScale=%v)", t.XScale)
		}
		bl.weights = append(bl.weights, t.WQ...)
		bl.scales = append(bl.scales, t.WScale...)
		bl.biases = append(bl.biases, t.Bias...)
		return archLayer{
			Kind: "conv", InC: t.InC, OutC: t.OutC, KH: t.KH, KW: t.KW,
			Stride: t.Stride, Pad: t.Pad, Bias: t.Bias != nil, XScale: t.XScale,
		}, nil
	case *nn.QLinear:
		if t.XScale <= 0 {
			return archLayer{}, fmt.Errorf("ftpm: linear layer not calibrated (XScale=%v)", t.XScale)
		}
		bl.weights = append(bl.weights, t.WQ...)
		bl.scales = append(bl.scales, t.WScale...)
		bl.biases = append(bl.biases, t.Bias...)
		return archLayer{
			Kind: "linear", In: t.In, Out: t.Out, Bias: t.Bias != nil, XScale: t.XScale,
		}, nil
	case *nn.QBatchNorm:
		bl.bn = append(bl.bn, t.Scale...)
		bl.bn = append(bl.bn, t.Shift...)
		return archLayer{Kind: "bn", C: t.C}, nil
	case *nn.QFloat:
		switch t.Layer.(type) {
		case *nn.ReLU:
			return archLayer{Kind: "relu"}, nil
		case *nn.GlobalAvgPool2D:
			return archLayer{Kind: "gap"}, nil
		case *nn.Flatten:
			return archLayer{Kind: "flatten"}, nil
		}
		return archLayer{}, fmt.Errorf("ftpm: unsupported float layer %T", t.Layer)
	case nn.QIdentity, *nn.QIdentity:
		return archLayer{Kind: "identity"}, nil
	case *nn.QBasicBlock:
		var sub []archLayer
		for _, inner := range []nn.QLayer{t.Conv1, t.BN1, t.Conv2, t.BN2} {
			al, err := encodeLayer(inner, bl)
			if err != nil {
				return archLayer{}, err
			}
			sub = append(sub, al)
		}
		return archLayer{
			Kind: "block", InC: t.InC, OutC: t.OutC, Stride: t.Stride, Sub: sub,
		}, nil
	default:
		return archLayer{}, fmt.Errorf("ftpm: unsupported layer type %T", l)
	}
}

// Decode reconstructs the quantized network from one FTPM container.
// The returned network's int8 weight planes ALIAS b (see the package
// comment's zero-copy contract); float planes are copies.
func Decode(b []byte) (*nn.QuantizedNetwork, Meta, error) {
	var meta Meta
	sections, err := ckpt.DecodeContainer(format, b)
	if err != nil {
		return nil, meta, err
	}
	for _, name := range []string{"arch", "weights", "scales", "biases", "bn", "meta"} {
		if _, ok := sections[name]; !ok {
			return nil, meta, fmt.Errorf("ftpm: missing section %q", name)
		}
	}
	if len(sections) != 6 {
		return nil, meta, fmt.Errorf("ftpm: unexpected extra sections (%d, want 6)", len(sections))
	}
	if err := json.Unmarshal(sections["meta"], &meta); err != nil {
		return nil, meta, fmt.Errorf("ftpm: bad meta section: %w", err)
	}
	layers, err := unmarshalArch(sections["arch"])
	if err != nil {
		return nil, meta, err
	}
	bl := blobs{weights: int8sOf(sections["weights"])}
	if bl.scales, err = decodeF32(sections["scales"]); err != nil {
		return nil, meta, fmt.Errorf("ftpm: scales section: %w", err)
	}
	if bl.biases, err = decodeF32(sections["biases"]); err != nil {
		return nil, meta, fmt.Errorf("ftpm: biases section: %w", err)
	}
	if bl.bn, err = decodeF32(sections["bn"]); err != nil {
		return nil, meta, fmt.Errorf("ftpm: bn section: %w", err)
	}
	q := &nn.QuantizedNetwork{Layers: make([]nn.QLayer, len(layers))}
	for i, al := range layers {
		ql, err := buildLayer(al, &bl, true)
		if err != nil {
			return nil, meta, err
		}
		q.Layers[i] = ql
	}
	// Every blob must be fully consumed: leftover bytes mean the arch
	// and the planes disagree, which is corruption, not slack.
	if bl.wOff != len(bl.weights) || bl.sOff != len(bl.scales) ||
		bl.bOff != len(bl.biases) || bl.bnOff != len(bl.bn) {
		return nil, meta, fmt.Errorf("ftpm: blob sizes disagree with arch (weights %d/%d, scales %d/%d, biases %d/%d, bn %d/%d)",
			bl.wOff, len(bl.weights), bl.sOff, len(bl.scales), bl.bOff, len(bl.biases), bl.bnOff, len(bl.bn))
	}
	return q, meta, nil
}

// takeW/takeF advance a blob cursor, bounds-checked.
func (bl *blobs) takeW(n int) ([]int8, error) {
	if n < 0 || bl.wOff+n > len(bl.weights) {
		return nil, fmt.Errorf("ftpm: weights blob exhausted (need %d at %d of %d)", n, bl.wOff, len(bl.weights))
	}
	s := bl.weights[bl.wOff : bl.wOff+n]
	bl.wOff += n
	return s, nil
}

func takeF(buf []float32, off *int, n int, what string) ([]float32, error) {
	if n < 0 || *off+n > len(buf) {
		return nil, fmt.Errorf("ftpm: %s blob exhausted (need %d at %d of %d)", what, n, *off, len(buf))
	}
	s := buf[*off : *off+n]
	*off += n
	return s, nil
}

// dimOK validates one dimension against the hardening bound.
func dimOK(vs ...int) bool {
	for _, v := range vs {
		if v < 1 || v > maxDim {
			return false
		}
	}
	return true
}

func scaleOK(s float32) bool {
	return s > 0 && !math.IsInf(float64(s), 0) && !math.IsNaN(float64(s))
}

func buildLayer(al archLayer, bl *blobs, allowBlock bool) (nn.QLayer, error) {
	switch al.Kind {
	case "conv":
		if !dimOK(al.InC, al.OutC, al.KH, al.KW, al.Stride) || al.Pad < 0 || al.Pad > maxDim {
			return nil, fmt.Errorf("ftpm: implausible conv dims %+v", al)
		}
		if !scaleOK(al.XScale) {
			return nil, fmt.Errorf("ftpm: conv activation scale %v out of range", al.XScale)
		}
		k := al.InC * al.KH * al.KW
		wq, err := bl.takeW(al.OutC * k)
		if err != nil {
			return nil, err
		}
		ws, err := takeF(bl.scales, &bl.sOff, al.OutC, "scales")
		if err != nil {
			return nil, err
		}
		var bias []float32
		if al.Bias {
			if bias, err = takeF(bl.biases, &bl.bOff, al.OutC, "biases"); err != nil {
				return nil, err
			}
		}
		for _, s := range ws {
			if !scaleOK(s) {
				return nil, fmt.Errorf("ftpm: conv weight scale %v out of range", s)
			}
		}
		return nn.NewQConv2D(al.InC, al.OutC, al.KH, al.KW, al.Stride, al.Pad, wq, ws, bias, al.XScale), nil
	case "linear":
		if !dimOK(al.In, al.Out) {
			return nil, fmt.Errorf("ftpm: implausible linear dims %+v", al)
		}
		if !scaleOK(al.XScale) {
			return nil, fmt.Errorf("ftpm: linear activation scale %v out of range", al.XScale)
		}
		wq, err := bl.takeW(al.Out * al.In)
		if err != nil {
			return nil, err
		}
		ws, err := takeF(bl.scales, &bl.sOff, al.Out, "scales")
		if err != nil {
			return nil, err
		}
		var bias []float32
		if al.Bias {
			if bias, err = takeF(bl.biases, &bl.bOff, al.Out, "biases"); err != nil {
				return nil, err
			}
		}
		for _, s := range ws {
			if !scaleOK(s) {
				return nil, fmt.Errorf("ftpm: linear weight scale %v out of range", s)
			}
		}
		return nn.NewQLinear(al.In, al.Out, wq, ws, bias, al.XScale), nil
	case "bn":
		if !dimOK(al.C) {
			return nil, fmt.Errorf("ftpm: implausible bn channels %d", al.C)
		}
		scale, err := takeF(bl.bn, &bl.bnOff, al.C, "bn")
		if err != nil {
			return nil, err
		}
		shift, err := takeF(bl.bn, &bl.bnOff, al.C, "bn")
		if err != nil {
			return nil, err
		}
		return nn.NewQBatchNorm(scale, shift), nil
	case "relu":
		return &nn.QFloat{Layer: nn.NewReLU()}, nil
	case "gap":
		return &nn.QFloat{Layer: nn.NewGlobalAvgPool2D()}, nil
	case "flatten":
		return &nn.QFloat{Layer: nn.NewFlatten()}, nil
	case "identity":
		return nn.NewQIdentity(), nil
	case "block":
		if !allowBlock {
			return nil, fmt.Errorf("ftpm: nested block")
		}
		if !dimOK(al.InC, al.OutC, al.Stride) {
			return nil, fmt.Errorf("ftpm: implausible block dims %+v", al)
		}
		if len(al.Sub) != 4 || al.Sub[0].Kind != "conv" || al.Sub[1].Kind != "bn" ||
			al.Sub[2].Kind != "conv" || al.Sub[3].Kind != "bn" {
			return nil, fmt.Errorf("ftpm: block must contain conv,bn,conv,bn")
		}
		parts := make([]nn.QLayer, 4)
		for i, sl := range al.Sub {
			p, err := buildLayer(sl, bl, false)
			if err != nil {
				return nil, err
			}
			parts[i] = p
		}
		return nn.NewQBasicBlock(
			parts[0].(*nn.QConv2D), parts[1].(*nn.QBatchNorm),
			parts[2].(*nn.QConv2D), parts[3].(*nn.QBatchNorm),
			al.InC, al.OutC, al.Stride), nil
	default:
		return nil, fmt.Errorf("ftpm: unknown layer kind %q", al.Kind)
	}
}

// Save writes the network to path via temp-file+rename, so a crash
// mid-export leaves either the old file or the new one, never a torn
// model.
func Save(path string, q *nn.QuantizedNetwork, meta Meta) error {
	data, err := Encode(q, meta)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Model is a loaded FTPM file: the reconstructed network plus the
// backing mapping it aliases.
type Model struct {
	Net    *nn.QuantizedNetwork
	Meta   Meta
	Mapped bool // true when the weights alias an mmap'd region

	unmap func() error
}

// Close releases the backing mapping. The network's int8 planes alias
// it, so the network (and every Clone — clones share the planes) must
// not be used after Close.
func (m *Model) Close() error {
	if m.unmap == nil {
		return nil
	}
	u := m.unmap
	m.unmap = nil
	return u()
}

// Load opens an exported model, zero-copy: on unix the file is mmap'd
// PROT_READ and the int8 weight planes alias the mapping (cold-start
// cost is one page-table setup plus decoding the small float/JSON
// sections, independent of weight volume); elsewhere — or if mmap
// fails — it falls back to reading the file into memory.
func Load(path string) (*Model, error) {
	b, unmap, err := mmapFile(path)
	mapped := err == nil
	if err != nil {
		if b, err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	net, meta, err := Decode(b)
	if err != nil {
		if mapped {
			unmap()
		}
		return nil, err
	}
	m := &Model{Net: net, Meta: meta, Mapped: mapped}
	if mapped {
		m.unmap = unmap
	}
	return m, nil
}

// bytesOfS8 views an int8 slice as bytes without copying (encode side).
func bytesOfS8(s []int8) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s))
}

// int8sOf views a byte slice as int8 without copying (decode side —
// this is the zero-copy aliasing step; int8 has alignment 1, so the
// cast is valid at any offset).
func int8sOf(b []byte) []int8 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int8)(unsafe.Pointer(&b[0])), len(b))
}

// appendF32 appends float32 values to dst as little-endian bytes.
func appendF32(dst []byte, vs []float32) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}

// decodeF32 decodes a little-endian float32 blob into a fresh slice
// (copied: payload offsets carry no 4-byte alignment guarantee, and
// the floats are per-channel — tiny next to the int8 planes).
func decodeF32(b []byte) ([]float32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("length %d not a multiple of 4", len(b))
	}
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out, nil
}
