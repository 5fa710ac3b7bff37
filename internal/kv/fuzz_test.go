package kv

import (
	"bytes"
	"testing"
)

// Fuzz targets for every decoder that consumes untrusted bytes (store keys
// read back from disk). Run continuously with `go test -fuzz Fuzz...`;
// under plain `go test` the seed corpus acts as extra unit coverage. The
// invariant in each case: decoders never panic, and whatever decodes
// successfully re-encodes to the same bytes.

func FuzzDecodeComposite(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeComposite([]byte("row"), []byte("col")))
	f.Add(EncodeComposite(nil, nil, nil))
	f.Add([]byte{0x00})
	f.Add([]byte{0x00, 0xFF, 0x00})
	f.Add([]byte("plain bytes with no terminator"))
	f.Fuzz(func(t *testing.T, data []byte) {
		parts, err := DecodeComposite(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeComposite(parts...), data) {
			t.Fatalf("re-encode mismatch for %x", data)
		}
	})
}

func FuzzFirstPartLen(f *testing.F) {
	f.Add([]byte{})
	f.Add(RowPrefix([]byte("row")))
	f.Add(BaseKey([]byte("row"), []byte("col")))
	f.Add(IndexKey([]byte{0x00, 0xFF, 0x00}, []byte("row")))
	f.Add(IndexKey([]byte{0xFF}, nil))
	f.Add(LocalIndexKey("lidx_t_c", []byte("value"), []byte("row")))
	f.Add([]byte{'r', 'o', 0x00})
	f.Add([]byte{0x00, 0xFF})
	f.Add([]byte{0x00, 0x00})
	f.Add([]byte{0x00, 0x01})
	f.Fuzz(checkFirstPartLen)
}

func FuzzParseInternalKey(f *testing.F) {
	f.Add([]byte{})
	f.Add(InternalKey([]byte("user"), 42, KindPut))
	f.Add(InternalKey(nil, 0, KindDelete))
	f.Fuzz(func(t *testing.T, data []byte) {
		uk, ts, kind, err := ParseInternalKey(data)
		if err != nil {
			return
		}
		if ts >= 0 && !bytes.Equal(InternalKey(uk, ts, kind), data) {
			// Non-canonical kind bytes (anything but 0/1 in the last
			// position) decode but re-encode canonically; only canonical
			// inputs must round-trip.
			if data[len(data)-1] == 0 || data[len(data)-1] == 1 {
				t.Fatalf("re-encode mismatch for %x", data)
			}
		}
	})
}

func FuzzSplitLocalIndexKey(f *testing.F) {
	f.Add([]byte{})
	f.Add(LocalIndexKey("lidx_t_c", []byte("value"), []byte("row")))
	f.Add(BaseKey([]byte("row"), []byte("col")))
	f.Add([]byte{0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, row, err := SplitLocalIndexKey("lidx_t_c", data)
		if err != nil {
			return
		}
		if !bytes.Equal(LocalIndexKey("lidx_t_c", v, row), data) {
			t.Fatalf("re-encode mismatch for %x", data)
		}
	})
}

func FuzzDecodeDense(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeDense(Int64Field(-5), BytesField([]byte("x"))))
	f.Add(EncodeDense(Float64Field(3.14), BoolField(true), Uint64Field(9)))
	f.Fuzz(func(t *testing.T, data []byte) {
		fields, err := DecodeDense(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeDense(fields...), data) {
			t.Fatalf("re-encode mismatch for %x", data)
		}
	})
}
