package image

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"github.com/tyche-sim/tyche/internal/codec"
)

// TestDecodeNeverPanics feeds Decode random and mutated-valid inputs:
// the loader is the attack surface a malicious image reaches first, so
// it must fail cleanly on anything.
func TestDecodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Pure noise.
	for i := 0; i < 300; i++ {
		buf := make([]byte, rng.Intn(512))
		rng.Read(buf)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decode panicked on noise: %v", r)
				}
			}()
			_, _ = Decode(buf)
		}()
	}
	// Mutations of a valid encoding: every single-byte corruption must
	// either decode to a *valid* image or error — never panic.
	valid, err := sampleImage().Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(valid); i++ {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xff
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decode panicked on mutation at byte %d: %v", i, r)
				}
			}()
			img, err := Decode(mut)
			if err == nil {
				if verr := img.Validate(); verr != nil {
					t.Fatalf("Decode returned an invalid image (mutation at %d): %v", i, verr)
				}
			}
		}()
	}
	// Truncations.
	for i := 0; i < len(valid); i += 7 {
		if _, err := Decode(valid[:i]); err == nil && i < len(valid)-1 {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
}

// TestManifestEncodingCanonical: an image has exactly one accepted
// encoding. A trailing byte, a bool byte of 2 and the old format's
// bytes are each refused with the codec's typed error.
func TestManifestEncodingCanonical(t *testing.T) {
	raw, err := sampleImage().Encode()
	if err != nil {
		t.Fatal(err)
	}
	// The last byte is the last segment's Measured bool.
	bool2 := append([]byte(nil), raw...)
	bool2[len(bool2)-1] = 2
	old := binary.LittleEndian.AppendUint32(nil, Magic)
	old = binary.LittleEndian.AppendUint32(old, 1)
	old = append(old, raw[5:]...)
	for _, c := range []struct {
		name string
		raw  []byte
		want error
	}{
		{"trailing byte", append(append([]byte(nil), raw...), 0), codec.ErrTrailing},
		{"bool byte 2", bool2, codec.ErrBool},
		{"format version 1", old, codec.ErrVersion},
	} {
		if _, err := Decode(c.raw); !errors.Is(err, c.want) {
			t.Errorf("%s: Decode = %v, want %v", c.name, err, c.want)
		}
	}
}

// FuzzImageManifest: Decode never panics, and bytes it accepts
// re-encode to exactly themselves.
func FuzzImageManifest(f *testing.F) {
	raw, err := sampleImage().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add(append(append([]byte(nil), raw...), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := Decode(data)
		if err != nil {
			return
		}
		again, err := img.Encode()
		if err != nil {
			t.Fatalf("an accepted image does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted bytes re-encode differently:\n in %x\nout %x", data, again)
		}
	})
}
