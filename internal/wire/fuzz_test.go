package wire

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzDecoder feeds the frame decoder torn and garbled NDJSON: the golden
// stream cut at a fuzzed offset with fuzzed bytes appended, and the
// fuzzed bytes on their own (seed corpus: testdata/fuzz/FuzzDecoder). The decoder must never panic, must deliver
// every frame whose line (newline included) precedes the cut, and may
// report ErrTruncated only at the very end of the stream.
func FuzzDecoder(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_stream.ndjson"))
	if err != nil {
		f.Fatal(err)
	}
	want, err := decodeAll(golden)
	if err != nil {
		f.Fatalf("golden stream: %v", err)
	}
	f.Fuzz(func(t *testing.T, cut uint16, tail []byte) {
		c := int(cut) % (len(golden) + 1)
		intact := bytes.Count(golden[:c], []byte("\n"))
		stream := append(append([]byte(nil), golden[:c]...), tail...)
		got, err := decodeAll(stream)
		if len(got) < intact {
			t.Fatalf("cut at %d: %d of %d intact frames delivered before %v", c, len(got), intact, err)
		}
		for i := 0; i < intact; i++ {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("cut at %d: intact frame %d changed:\n got %#v\nwant %#v", c, i, got[i], want[i])
			}
		}
		_, _ = decodeAll(tail)
	})
}

// decodeAll drains a stream, returning its frames and the error that
// ended it (nil at a clean io.EOF). It fails the fuzz run's invariants by
// panicking, so a broken decoder surfaces as a crash with its input.
func decodeAll(stream []byte) ([]any, error) {
	dec := NewDecoder(bytes.NewReader(stream))
	var frames []any
	for n := 0; ; n++ {
		if n > len(stream)+1 {
			panic("decoder delivered more frames than the stream has lines")
		}
		frame, err := dec.Next()
		switch {
		case err == nil:
			frames = append(frames, frame)
			continue
		case errors.Is(err, io.EOF):
			return frames, nil
		case errors.Is(err, ErrTruncated):
			if _, after := dec.Next(); !errors.Is(after, io.EOF) {
				panic("ErrTruncated before the end of the stream")
			}
		}
		return frames, err
	}
}
