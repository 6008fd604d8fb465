package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// drainGrid decodes a whole grid stream, returning nil only when every
// chunk and the footer parse.
func drainGrid(r io.Reader) error {
	gr, err := NewGridReader(r)
	if err != nil {
		return err
	}
	for {
		if _, _, err := gr.Next(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

func TestBadMagic(t *testing.T) {
	buf, _ := writeGrid(t, buildGridEvents(10), 100, nil)
	raw := buf.Bytes()

	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xFF
	if err := drainGrid(bytes.NewReader(bad)); !errors.Is(err, errGridMagic) {
		t.Fatalf("corrupted preamble magic: err = %v, want %v", err, errGridMagic)
	}
	bad = append([]byte(nil), raw...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := ReadGridFooter(bytes.NewReader(bad)); !errors.Is(err, errGridMagic) {
		t.Fatalf("corrupted trailer magic: err = %v, want %v", err, errGridMagic)
	}
}

func TestBadVersion(t *testing.T) {
	buf, _ := writeGrid(t, buildGridEvents(10), 100, nil)
	raw := buf.Bytes()
	raw[4] = 99
	if err := drainGrid(bytes.NewReader(raw)); !errors.Is(err, errGridVersion) {
		t.Fatalf("unsupported version: err = %v, want %v", err, errGridVersion)
	}
}

func TestTruncatedStream(t *testing.T) {
	evs := buildGridEvents(10000) // three chunks
	buf, _ := writeGrid(t, evs, evs[len(evs)-1].insts+1, nil)
	raw := buf.Bytes()
	for _, n := range []int{3, 8, len(raw) / 2, len(raw) - 5} {
		if err := drainGrid(bytes.NewReader(raw[:n])); err == nil {
			t.Errorf("stream truncated to %d of %d bytes decoded without error", n, len(raw))
		}
	}
	if _, err := ReadGridFooter(bytes.NewReader(raw[:len(raw)-5])); err == nil {
		t.Error("footer of a truncated stream read without error")
	}
}

func TestOpString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" {
		t.Fatal("op strings")
	}
}
