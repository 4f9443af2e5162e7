package core

import (
	"fmt"
	"strings"
	"testing"
)

// savedBytes trains the shared test system once and serializes it.
func savedBytes(t testing.TB) []byte {
	sys, err := Train(testIMDB(), testWorkload(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	data, err := sys.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLoadTruncated: every prefix-truncation of a valid snapshot must fail
// with a descriptive error, never a panic or a half-restored system.
func TestLoadTruncated(t *testing.T) {
	db := testIMDB()
	data := savedBytes(t)
	cuts := []int{0, 1, 3, 4, 5, snapHeaderLen - 1, snapHeaderLen, snapHeaderLen + 1,
		len(data) / 4, len(data) / 2, len(data) - 1}
	for _, n := range cuts {
		if n >= len(data) {
			continue
		}
		if _, err := LoadBytes(db, data[:n]); err == nil {
			t.Errorf("truncation to %d bytes loaded without error", n)
		}
	}
}

// TestLoadBitFlips: flipping any byte of the frame or payload must be caught
// (by the magic, version, length, or CRC checks) with an error.
func TestLoadBitFlips(t *testing.T) {
	db := testIMDB()
	data := savedBytes(t)
	// Sample positions across the frame and the payload.
	positions := []int{4, 5, 9, 13, 14, snapHeaderLen, snapHeaderLen + 7, len(data) - 1}
	for _, pos := range positions {
		if pos >= len(data) {
			continue
		}
		corrupt := append([]byte(nil), data...)
		corrupt[pos] ^= 0xFF
		if _, err := LoadBytes(db, corrupt); err == nil {
			t.Errorf("bit flip at %d loaded without error", pos)
		}
	}
}

// TestLoadImplausibleLength: a length prefix larger than the data (or than
// any sane payload) is rejected by the bounds check before decoding.
func TestLoadImplausibleLength(t *testing.T) {
	db := testIMDB()
	data := savedBytes(t)
	corrupt := append([]byte(nil), data...)
	for i := 5; i < 13; i++ {
		corrupt[i] = 0xFF // length = 2^64-1
	}
	_, err := LoadBytes(db, corrupt)
	if err == nil {
		t.Fatal("implausible length prefix loaded without error")
	}
	if !strings.Contains(err.Error(), "length") && !strings.Contains(err.Error(), "truncated") {
		t.Errorf("error %q does not describe the length problem", err)
	}
}

// TestLoadRejectsFrameless: input that does not open with the frame magic is
// not a snapshot — neither a bare gob payload (what writers before the frame
// produced) nor a valid snapshot with any one bit of its magic flipped, which
// must not reach the decoder past the length and CRC checks.
func TestLoadRejectsFrameless(t *testing.T) {
	db := testIMDB()
	data := savedBytes(t)
	inputs := map[string][]byte{"bare gob payload": data[snapHeaderLen:]}
	for bit := 0; bit < 8*len(snapMagic); bit++ {
		flipped := append([]byte(nil), data...)
		flipped[bit/8] ^= 1 << (bit % 8)
		inputs[fmt.Sprintf("magic bit %d flipped", bit)] = flipped
	}
	for name, in := range inputs {
		if sys, err := LoadBytes(db, in); sys != nil || err == nil || !strings.Contains(err.Error(), "not a snapshot: bad magic") {
			t.Errorf("%s: loaded %v, err = %v; want a bad-magic error", name, sys != nil, err)
		}
	}
}

// FuzzLoad drives LoadBytes with mutated snapshots. The property under test:
// whatever the bytes, LoadBytes returns (system, nil) or (nil, error) — it
// never panics and never returns a nil system without an error.
func FuzzLoad(f *testing.F) {
	db := testIMDB()
	valid := savedBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[snapHeaderLen:])
	f.Add([]byte{})
	f.Add([]byte("ASQP"))
	f.Add([]byte("ASQP\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sys, err := LoadBytes(db, data)
		if err == nil && sys == nil {
			t.Fatal("LoadBytes returned nil system and nil error")
		}
	})
}
