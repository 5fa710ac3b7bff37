package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Internal keys.
//
// The memtable and SSTables store cells under an internal key that appends
// the inverted timestamp and kind to the user key:
//
//	internal key = userKey · ( ^ts as big-endian uint64 ) · kind
//
// Inverting the timestamp makes newer versions of the same user key sort
// first, so "newest version ≤ ts" is the first match of a forward scan from
// Seek(userKey, ts). The kind byte breaks the (unlikely) tie between a put
// and a tombstone carrying the same timestamp in favour of the tombstone,
// matching HBase's delete-masks-put rule.

// InternalSuffixLen is the number of trailing bytes an internal key adds to
// the user key: 8 timestamp bytes plus 1 kind byte.
const InternalSuffixLen = 9

// AppendInternalKey appends the internal encoding of (userKey, ts, kind) to
// dst and returns the extended slice.
func AppendInternalKey(dst, userKey []byte, ts Timestamp, kind Kind) []byte {
	dst = append(dst, userKey...)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], ^uint64(ts))
	dst = append(dst, buf[:]...)
	// Tombstones sort before puts at the same timestamp so that a delete
	// issued at time T masks a put at the same T.
	if kind == KindDelete {
		return append(dst, 0)
	}
	return append(dst, 1)
}

// InternalKey encodes (userKey, ts, kind) into a fresh buffer.
func InternalKey(userKey []byte, ts Timestamp, kind Kind) []byte {
	return AppendInternalKey(make([]byte, 0, len(userKey)+InternalSuffixLen), userKey, ts, kind)
}

// SeekKey returns the internal key from which a forward scan finds the newest
// version of userKey with timestamp ≤ ts (tombstone or put).
func SeekKey(userKey []byte, ts Timestamp) []byte {
	return AppendInternalKey(make([]byte, 0, len(userKey)+InternalSuffixLen), userKey, ts, KindDelete)
}

// ParseInternalKey splits an internal key into its components. The returned
// userKey aliases ikey's storage, with its capacity cut at its end so an
// append to it cannot overwrite the suffix.
func ParseInternalKey(ikey []byte) (userKey []byte, ts Timestamp, kind Kind, err error) {
	if len(ikey) < InternalSuffixLen {
		return nil, 0, 0, fmt.Errorf("kv: internal key too short (%d bytes)", len(ikey))
	}
	n := len(ikey) - InternalSuffixLen
	userKey = ikey[:n:n]
	ts = Timestamp(^binary.BigEndian.Uint64(ikey[n : n+8]))
	if ikey[len(ikey)-1] == 0 {
		kind = KindDelete
	} else {
		kind = KindPut
	}
	return userKey, ts, kind, nil
}

// InternalUserKey returns the user-key portion of an internal key without
// validating the suffix contents.
func InternalUserKey(ikey []byte) []byte {
	if len(ikey) < InternalSuffixLen {
		return ikey
	}
	return ikey[:len(ikey)-InternalSuffixLen]
}

// CompareInternal orders internal keys: by user key ascending, then by
// timestamp descending (newest first), then tombstones before puts. The user
// keys are compared first so the ordering is correct even when one user key
// is a raw byte prefix of another.
func CompareInternal(a, b []byte) int {
	if c := bytes.Compare(InternalUserKey(a), InternalUserKey(b)); c != 0 {
		return c
	}
	// Equal user keys: the inverted-timestamp + kind suffix compares
	// byte-wise (both suffixes have the same fixed width).
	return bytes.Compare(a[len(a)-min(len(a), InternalSuffixLen):], b[len(b)-min(len(b), InternalSuffixLen):])
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
