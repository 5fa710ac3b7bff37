package kv

import (
	"bytes"
	"errors"
	"fmt"
)

// Order-preserving composite key encoding.
//
// Both base-table keys (row ⊕ column) and index-table keys (indexValue ⊕ row,
// §4) are concatenations of variable-length byte strings. Plain concatenation
// does not preserve order and is ambiguous, so each part is escaped and
// terminated:
//
//	0x00            → 0x00 0xFF   (escape)
//	end of part     → 0x00 0x01   (terminator)
//
// The terminator (0x00 0x01) sorts below every escaped byte sequence that
// continues the part (0x00 0xFF or any byte ≥ 0x01), so for any distinct a, b:
// a < b  ⇔  Escape(a) < Escape(b), and a part is never a prefix of a
// different part's encoding. This is the classic escape used by BigTable-style
// stores for composite keys.

const (
	escByte  = 0x00
	escCont  = 0xFF // follows escByte when the source byte was 0x00
	escTerm  = 0x01 // follows escByte to terminate a part
	sepBytes = 2
)

// AppendPart appends the order-preserving encoding of part (including its
// terminator) to dst and returns the extended slice.
func AppendPart(dst, part []byte) []byte {
	for _, b := range part {
		if b == escByte {
			dst = append(dst, escByte, escCont)
		} else {
			dst = append(dst, b)
		}
	}
	return append(dst, escByte, escTerm)
}

// EncodeComposite encodes parts into a single key that sorts exactly like the
// tuple of parts compared part-by-part.
func EncodeComposite(parts ...[]byte) []byte {
	n := sepBytes * len(parts)
	for _, p := range parts {
		n += len(p)
	}
	dst := make([]byte, 0, n+4)
	for _, p := range parts {
		dst = AppendPart(dst, p)
	}
	return dst
}

// ErrBadEncoding is returned when a composite key cannot be decoded.
var ErrBadEncoding = errors.New("kv: malformed composite key encoding")

// DecodePart decodes the first part of b, returning the part and the rest of
// the buffer after the terminator. The part is a copy of its exact size.
func DecodePart(b []byte) (part, rest []byte, err error) {
	n := FirstPartLen(b)
	if n < 0 {
		return nil, nil, ErrBadEncoding
	}
	out := make([]byte, 0, n-sepBytes)
	for i := 0; i < n-sepBytes; i++ {
		out = append(out, b[i])
		if b[i] == escByte {
			i++ // 0x00 0xFF decodes to 0x00
		}
	}
	return out, b[n:], nil
}

// FirstPartLen returns the length of b's first encoded part, terminator
// included, without decoding it: b[:n] is the prefix that every key sharing
// b's first part begins with — a base key's row, an index key's value. It
// returns -1 when b does not start with a complete, well-formed part (a
// local-index key, a raw key, a truncated part).
func FirstPartLen(b []byte) int {
	for i := 0; i < len(b); i++ {
		if b[i] != escByte {
			continue
		}
		if i+1 >= len(b) {
			return -1
		}
		switch b[i+1] {
		case escCont:
			i++
		case escTerm:
			return i + 2
		default:
			return -1
		}
	}
	return -1
}

// IsPartRange reports whether [lo, hi) is exactly the keys whose first part
// is lo: lo is one complete part and hi is PrefixSuccessor(lo). A row read
// and an exact-value index read scan such a range, and SSTables whose
// filter lacks lo can be skipped for it.
func IsPartRange(lo, hi []byte) bool {
	n := len(lo)
	if n == 0 || len(hi) != n || FirstPartLen(lo) != n {
		return false
	}
	// lo ends with the terminator byte escTerm, so its successor only
	// increments that byte.
	return hi[n-1] == escTerm+1 && bytes.Equal(hi[:n-1], lo[:n-1])
}

// DecodeComposite decodes every part of a composite key.
func DecodeComposite(b []byte) ([][]byte, error) {
	var parts [][]byte
	for len(b) > 0 {
		part, rest, err := DecodePart(b)
		if err != nil {
			return nil, err
		}
		parts = append(parts, part)
		b = rest
	}
	return parts, nil
}

// PrefixSuccessor returns the smallest key that is strictly greater than
// every key having the given prefix, or nil if no such key exists (the
// prefix is all 0xFF). It is used to turn "all keys with prefix p" into the
// half-open range [p, PrefixSuccessor(p)).
func PrefixSuccessor(prefix []byte) []byte {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xFF {
			out := append([]byte(nil), prefix[:i+1]...)
			out[i]++
			return out
		}
	}
	return nil
}

// --- Base-table keys -------------------------------------------------------

// BaseKey encodes a base-table user key from a row key and a column name:
// the paper's "HBase rowkey plus column name".
func BaseKey(row, column []byte) []byte {
	return EncodeComposite(row, column)
}

// SplitBaseKey decodes a base-table key back into (row, column).
func SplitBaseKey(key []byte) (row, column []byte, err error) {
	return splitPair("base", key)
}

// splitPair decodes a two-part key of the given kind.
func splitPair(kind string, key []byte) (first, second []byte, err error) {
	first, rest, err := DecodePart(key)
	if err == nil {
		second, rest, err = DecodePart(rest)
	}
	if err != nil || len(rest) > 0 {
		return nil, nil, fmt.Errorf("%w: %s key is not two parts", ErrBadEncoding, kind)
	}
	return first, second, nil
}

// RowPrefix returns the key prefix covering every column of the given row.
func RowPrefix(row []byte) []byte {
	return AppendPart(nil, row)
}

// --- Index-table keys ------------------------------------------------------

// IndexKey encodes an index-table row key: the concatenation of the index
// value and the base row key (the paper's v ⊕ k), with a null value stored
// alongside. The index table is key-only (§4 Remark).
func IndexKey(value, row []byte) []byte {
	return EncodeComposite(value, row)
}

// SplitIndexKey decodes an index key back into (value, row).
func SplitIndexKey(key []byte) (value, row []byte, err error) {
	return splitPair("index", key)
}

// IndexValuePrefix returns the key prefix covering every index entry whose
// index value equals value — the scan range used by exact-match index reads.
func IndexValuePrefix(value []byte) []byte {
	return AppendPart(nil, value)
}

// IndexValueRange returns the half-open index-key range [lo, hi) covering all
// index entries whose value v satisfies low ≤ v ≤ high (inclusive bounds),
// as used by range queries over an indexed column (§8.2 "Range query with
// index"). A nil high means "no upper bound".
func IndexValueRange(low, high []byte) (lo, hi []byte) {
	lo = AppendPart(nil, low)
	if high == nil {
		return lo, nil
	}
	hi = PrefixSuccessor(AppendPart(nil, high))
	return lo, hi
}

// --- Local-index keys -------------------------------------------------------

// Local secondary indexes (§3.1) co-locate with the region holding the
// indexed row: their entries live in the SAME region store as the base
// data, under a reserved key space that no base-table key can collide with.
// Every encoded base key starts either with a byte ≥ 0x01, or with the
// escape pair 0x00 0xFF, or with the empty-part terminator 0x00 0x01 — so
// the prefix 0x00 0x00 is unreachable from base encodings and marks local
// index entries, and all of them sort before BaseDataStart.

// localIndexPrefix begins every local-index store key.
var localIndexPrefix = []byte{0x00, 0x00}

// BaseDataStart is the smallest store key a base-table cell can have; scans
// of base data start here so local-index entries are excluded.
var BaseDataStart = []byte{0x00, 0x01}

// LocalIndexKey encodes a local-index entry's store key:
// 0x00 0x00 · name · value · row (composite-encoded).
func LocalIndexKey(indexName string, value, row []byte) []byte {
	out := make([]byte, 0, 2+len(indexName)+len(value)+len(row)+3*sepBytes)
	out = append(out, localIndexPrefix...)
	out = AppendPart(out, []byte(indexName))
	out = AppendPart(out, value)
	return AppendPart(out, row)
}

// SplitLocalIndexKey decodes a local-index store key into (value, row),
// validating the prefix and index name.
func SplitLocalIndexKey(indexName string, key []byte) (value, row []byte, err error) {
	if !bytes.HasPrefix(key, localIndexPrefix) {
		return nil, nil, fmt.Errorf("%w: not a local index key", ErrBadEncoding)
	}
	parts, err := DecodeComposite(key[len(localIndexPrefix):])
	if err != nil {
		return nil, nil, err
	}
	if len(parts) != 3 {
		return nil, nil, fmt.Errorf("%w: local index key has %d parts, want 3", ErrBadEncoding, len(parts))
	}
	if string(parts[0]) != indexName {
		return nil, nil, fmt.Errorf("%w: local index key for %q, want %q", ErrBadEncoding, parts[0], indexName)
	}
	return parts[1], parts[2], nil
}

// IsLocalIndexKey reports whether a store key lies in the reserved
// local-index key space.
func IsLocalIndexKey(key []byte) bool { return bytes.HasPrefix(key, localIndexPrefix) }

// LocalIndexRow extracts the base row key from any local-index store key,
// regardless of which index it belongs to — region splitting uses it to
// route local entries alongside their rows.
func LocalIndexRow(key []byte) ([]byte, error) {
	if !IsLocalIndexKey(key) {
		return nil, fmt.Errorf("%w: not a local index key", ErrBadEncoding)
	}
	parts, err := DecodeComposite(key[len(localIndexPrefix):])
	if err != nil {
		return nil, err
	}
	if len(parts) != 3 {
		return nil, fmt.Errorf("%w: local index key has %d parts, want 3", ErrBadEncoding, len(parts))
	}
	return parts[2], nil
}

// LocalIndexValuePrefix returns the store-key prefix of all of indexName's
// entries with exactly the given value.
func LocalIndexValuePrefix(indexName string, value []byte) []byte {
	out := make([]byte, 0, 2+len(indexName)+len(value)+2*sepBytes)
	out = append(out, localIndexPrefix...)
	out = AppendPart(out, []byte(indexName))
	return AppendPart(out, value)
}

// LocalIndexValueRange returns the store-key range of indexName's entries
// with value v satisfying low ≤ v ≤ high (nil high = unbounded within the
// index).
func LocalIndexValueRange(indexName string, low, high []byte) (lo, hi []byte) {
	namePrefix := append(append([]byte(nil), localIndexPrefix...), AppendPart(nil, []byte(indexName))...)
	lo = append(append([]byte(nil), namePrefix...), AppendPart(nil, low)...)
	if high == nil {
		return lo, PrefixSuccessor(namePrefix)
	}
	hi = PrefixSuccessor(append(append([]byte(nil), namePrefix...), AppendPart(nil, high)...))
	return lo, hi
}

// IndexValueFromColumns computes an index's value bytes from a row's column
// values: a single-column index's value is the raw column value; a composite
// index's value is the order-preserving composite encoding of every column
// value in definition order. ok is false when any indexed column is absent
// (rows with missing indexed columns have no index entry — NULL semantics).
// Both the index-maintenance path and the anti-entropy verifier derive index
// values through this one function so they can never disagree.
func IndexValueFromColumns(columns []string, cols map[string][]byte) ([]byte, bool) {
	if len(columns) == 1 {
		v, ok := cols[columns[0]]
		return v, ok
	}
	parts := make([][]byte, len(columns))
	for i, c := range columns {
		v, ok := cols[c]
		if !ok {
			return nil, false
		}
		parts[i] = v
	}
	return EncodeComposite(parts...), true
}

// CompareParts compares two byte-string tuples part-by-part, mirroring how
// their composite encodings compare byte-wise.
func CompareParts(a, b [][]byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := bytes.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}
