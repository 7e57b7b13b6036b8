package frame

import (
	"errors"
	"io"
	"strings"
	"testing"
)

func TestReadLineFrames(t *testing.T) {
	r := NewReader(strings.NewReader("a\n"+strings.Repeat("b", 5000)+"\ntail"), 8192, "peer")
	for _, want := range []string{"a\n", strings.Repeat("b", 5000) + "\n"} {
		got, err := r.ReadLine()
		if err != nil || string(got) != want {
			t.Fatalf("ReadLine = %q, %v; want %q", got, err, want)
		}
	}
	got, err := r.ReadLine()
	if err != io.EOF || string(got) != "tail" {
		t.Fatalf("unterminated tail: ReadLine = %q, %v; want \"tail\", io.EOF", got, err)
	}
	if got, err := r.ReadLine(); err != io.EOF || len(got) != 0 {
		t.Fatalf("after EOF: ReadLine = %q, %v", got, err)
	}
}

// TestReadLineCap pins the bound: a frame past the cap fails with an
// error that names the peer and the cap, whether the excess arrives
// within one buffer fill or across many.
func TestReadLineCap(t *testing.T) {
	for _, size := range []int{17, 100_000} {
		r := NewReader(strings.NewReader(strings.Repeat("x", size)+"\n"), 16, "worker 3 (10.0.0.7:4242)")
		_, err := r.ReadLine()
		if !errors.Is(err, ErrTooLong) {
			t.Fatalf("size %d: err = %v, want ErrTooLong", size, err)
		}
		for _, part := range []string{"worker 3 (10.0.0.7:4242)", "16 bytes"} {
			if !strings.Contains(err.Error(), part) {
				t.Fatalf("size %d: error %q does not name %q", size, err, part)
			}
		}
	}
	// Exactly at the cap (terminator included) is allowed.
	r := NewReader(strings.NewReader(strings.Repeat("x", 15)+"\n"), 16, "peer")
	if got, err := r.ReadLine(); err != nil || len(got) != 16 {
		t.Fatalf("frame at the cap: ReadLine = %d bytes, %v", len(got), err)
	}
}
