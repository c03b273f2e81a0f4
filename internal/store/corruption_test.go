package store

import (
	"bytes"
	"math/rand"
	"testing"

	"nalquery/internal/xmlgen"
)

// Fault injection: a corrupted or truncated store image must never crash
// the loader — it either returns an error or (for corruptions that keep the
// format self-consistent, e.g. a flipped character inside a string) a
// well-formed document.

func savedImage(t *testing.T) []byte {
	t.Helper()
	cfg := xmlgen.DefaultConfig(50)
	doc := xmlgen.Bib(cfg)
	var buf bytes.Buffer
	if err := SaveStats(&buf, doc, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func loadNoPanic(t *testing.T, img []byte, what string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Load panicked on %s: %v", what, r)
		}
	}()
	_, _, _ = LoadStats(bytes.NewReader(img))
}

// TestLoadTruncatedImages: every prefix length must load without panicking.
func TestLoadTruncatedImages(t *testing.T) {
	img := savedImage(t)
	stride := len(img)/257 + 1
	for n := 0; n < len(img); n += stride {
		loadNoPanic(t, img[:n], "truncation")
	}
}

// TestLoadBitFlips: random single-byte corruptions must load or error, not
// panic.
func TestLoadBitFlips(t *testing.T) {
	img := savedImage(t)
	rng := rand.New(rand.NewSource(99))
	rounds := 500
	if testing.Short() {
		rounds = 50
	}
	for i := 0; i < rounds; i++ {
		mut := append([]byte{}, img...)
		pos := rng.Intn(len(mut))
		mut[pos] ^= byte(1 << rng.Intn(8))
		loadNoPanic(t, mut, "bit flip")
	}
}

// TestLoadRandomGarbage: arbitrary byte strings must be rejected cleanly.
func TestLoadRandomGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		garbage := make([]byte, rng.Intn(200))
		rng.Read(garbage)
		loadNoPanic(t, garbage, "garbage")
	}
}

// TestLoadHugeDeclaredLength: a corrupt length prefix must not trigger an
// enormous allocation or a hang; the decoder must notice the impossible
// size.
func TestLoadHugeDeclaredLength(t *testing.T) {
	img := savedImage(t)
	// Overwrite bytes shortly after the magic with maximal varint-ish
	// values at several offsets.
	for off := 8; off < 40 && off < len(img); off += 4 {
		mut := append([]byte{}, img...)
		for k := 0; k < 9 && off+k < len(mut); k++ {
			mut[off+k] = 0xFF
		}
		loadNoPanic(t, mut, "huge length")
	}
}
