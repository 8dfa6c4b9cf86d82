package ftpm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/ftpim/ftpim/internal/tensor"
)

// TestGoldenBytes pins the FTPM encoding and the int8 logits of a fixed
// network across commits: a refactor of the quantized path or the
// format must leave both hashes unchanged. The float warm-up and
// calibration forwards that build the network depend on the numerics
// tier, so the exact tier is set for the duration of the test.
func TestGoldenBytes(t *testing.T) {
	defer tensor.SetNumerics(tensor.SetNumerics(tensor.NumericsExact))
	const (
		wantLen    = 1653
		wantModel  = "c7573eae32e60c06e92da6ea115e4f191ad90b0848adf2828cab888b5bc3eb1e"
		wantLogits = "47dada755c9bf5d219e0494236568b1cbd5dbf66867a896ce3f74d4feb51f17f"
	)
	q, x := testQNet(t, 31)
	b, err := Encode(q, sampleMeta())
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != wantLen {
		t.Errorf("encoded length = %d, want %d", len(b), wantLen)
	}
	if got := sha256hex(b); got != wantModel {
		t.Errorf("encoded model sha256 = %s, want %s", got, wantModel)
	}
	logits := q.Forward(x, false).Data()
	bits := make([]byte, 4*len(logits))
	for i, v := range logits {
		binary.LittleEndian.PutUint32(bits[4*i:], math.Float32bits(v))
	}
	if got := sha256hex(bits); got != wantLogits {
		t.Errorf("logits sha256 = %s, want %s", got, wantLogits)
	}
}

func sha256hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
