package rep

import (
	"math/rand"
	"testing"

	"seqrep/internal/breaking"
	"seqrep/internal/synth"
)

// UnmarshalBinary must never panic: random corruptions of a valid blob
// either decode to a valid series or fail with an error.
func TestDecodeRobustToRandomCorruption(t *testing.T) {
	fever, err := synth.Fever(synth.FeverOpts{Samples: 97})
	if err != nil {
		t.Fatal(err)
	}
	segs, err := breaking.Interpolation(0.5).Break(fever)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Build(fever, segs, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := fs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 500; trial++ {
		mutated := append([]byte(nil), blob...)
		// Flip 1-4 random bytes.
		for flips := 1 + rng.Intn(4); flips > 0; flips-- {
			mutated[rng.Intn(len(mutated))] ^= byte(1 + rng.Intn(255))
		}
		var decoded FunctionSeries
		if err := decoded.UnmarshalBinary(mutated); err != nil {
			continue // rejection is fine
		}
		// If it decoded, it must satisfy the validator (i.e. mutation hit
		// payload floats, not structure).
		if err := decoded.Validate(); err != nil {
			t.Fatalf("trial %d: UnmarshalBinary returned invalid series: %v", trial, err)
		}
	}
}

// UnmarshalBinary must also survive entirely random input.
func TestDecodeRobustToRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for trial := 0; trial < 500; trial++ {
		buf := make([]byte, rng.Intn(256))
		rng.Read(buf)
		var fs FunctionSeries
		if err := fs.UnmarshalBinary(buf); err == nil {
			if err := fs.Validate(); err != nil {
				t.Fatalf("trial %d: random bytes decoded to invalid series", trial)
			}
		}
	}
}

// Truncation at every byte offset must error, never panic or hang.
func TestDecodeEveryTruncation(t *testing.T) {
	fever, err := synth.Fever(synth.FeverOpts{Samples: 49})
	if err != nil {
		t.Fatal(err)
	}
	segs, err := breaking.Interpolation(0.5).Break(fever)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Build(fever, segs, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := fs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(blob); cut++ {
		var fs FunctionSeries
		if err := fs.UnmarshalBinary(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(blob))
		}
	}
}
