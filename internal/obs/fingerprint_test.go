package obs

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// TestDigestMatchesFNV feeds the same random words, floats (including NaN,
// ±0 and ±Inf), flags and strings to Digest and to hash/fnv's New64a, as the
// bytes the fingerprints have always hashed, and requires equal sums after
// every value — so every golden fingerprint is unchanged by the inline
// hashing.
func TestDigestMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ref := fnv.New64a()
	word := func(u uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		ref.Write(b[:])
	}
	specials := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1, -1}
	d := NewDigest()
	for i := 0; i < 2000; i++ {
		switch rng.Intn(4) {
		case 0:
			u := rng.Uint64()
			d.Word(u)
			word(u)
		case 1:
			f := rng.NormFloat64() * 1e6
			if rng.Intn(4) == 0 {
				f = specials[rng.Intn(len(specials))]
			}
			d.Float(f)
			word(math.Float64bits(f))
		case 2:
			b := rng.Intn(2) == 0
			d.Flag(b)
			if b {
				word(math.Float64bits(1))
			} else {
				word(math.Float64bits(0))
			}
		default:
			s := make([]byte, rng.Intn(12))
			rng.Read(s)
			d.Text(string(s))
			ref.Write(s)
		}
		if d.Sum() != ref.Sum64() {
			t.Fatalf("value %d: digest %#x, hash/fnv %#x", i, d.Sum(), ref.Sum64())
		}
	}
}

// TestResultFingerprintAllocs pins fingerprinting a whole run at zero
// allocations: callers hash every Result (perfbench checks each timed
// operation this way), so the hashing must not add heap traffic.
func TestResultFingerprintAllocs(t *testing.T) {
	res := runTraced(t, nil)
	want := ResultFingerprint(res)
	allocs := testing.AllocsPerRun(20, func() {
		if ResultFingerprint(res) != want {
			t.Fatal("ResultFingerprint not deterministic")
		}
	})
	if allocs != 0 {
		t.Fatalf("ResultFingerprint allocates %.1f/op, want 0", allocs)
	}
}
