package kv

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestInternalKeyRoundTrip(t *testing.T) {
	f := func(userKey []byte, ts int64, del bool) bool {
		if ts < 0 {
			ts = -ts
		}
		kind := KindPut
		if del {
			kind = KindDelete
		}
		ikey := InternalKey(userKey, ts, kind)
		uk, gotTs, gotKind, err := ParseInternalKey(ikey)
		if err != nil {
			return false
		}
		return bytes.Equal(uk, userKey) && gotTs == ts && gotKind == kind
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseInternalKeyTooShort(t *testing.T) {
	if _, _, _, err := ParseInternalKey(make([]byte, InternalSuffixLen-1)); err == nil {
		t.Error("want error for short internal key")
	}
}

func TestInternalKeyOrdering(t *testing.T) {
	// Same user key: newer timestamps sort first.
	a := InternalKey([]byte("k"), 10, KindPut)
	b := InternalKey([]byte("k"), 5, KindPut)
	if CompareInternal(a, b) >= 0 {
		t.Error("newer version must sort before older")
	}
	// Same user key, same ts: tombstone sorts before put.
	d := InternalKey([]byte("k"), 10, KindDelete)
	if CompareInternal(d, a) >= 0 {
		t.Error("tombstone must sort before put at equal ts")
	}
	// Different user keys dominate.
	c := InternalKey([]byte("kk"), math.MaxInt64, KindDelete)
	if CompareInternal(a, c) >= 0 {
		t.Error("user key must dominate ordering")
	}
}

func TestSeekKeyFindsNewestVisible(t *testing.T) {
	// A scan from SeekKey(k, ts) must reach versions with timestamp ≤ ts and
	// skip versions with timestamp > ts.
	uk := []byte("row\x00col")
	seek := SeekKey(uk, 7)
	newer := InternalKey(uk, 8, KindPut)
	atTs := InternalKey(uk, 7, KindPut)
	atTsDel := InternalKey(uk, 7, KindDelete)
	older := InternalKey(uk, 3, KindPut)
	if CompareInternal(newer, seek) >= 0 {
		t.Error("version newer than ts must sort before the seek key")
	}
	for _, vis := range [][]byte{atTsDel, atTs, older} {
		if CompareInternal(seek, vis) > 0 {
			t.Errorf("visible version %x sorts before seek key", vis)
		}
	}
	if CompareInternal(atTsDel, atTs) >= 0 {
		t.Error("tombstone at ts must be seen before put at ts")
	}
}

func TestSeekKeyProperty(t *testing.T) {
	f := func(uk []byte, seekTs, vTs int64, del bool) bool {
		if seekTs < 0 {
			seekTs = -seekTs
		}
		if vTs < 0 {
			vTs = -vTs
		}
		kind := KindPut
		if del {
			kind = KindDelete
		}
		seek := SeekKey(uk, seekTs)
		ver := InternalKey(uk, vTs, kind)
		visible := vTs <= seekTs
		// visible ⇔ version at/after seek position
		return visible == (CompareInternal(seek, ver) <= 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestInternalUserKey(t *testing.T) {
	uk := []byte("some-user-key")
	ikey := InternalKey(uk, 123, KindPut)
	if !bytes.Equal(InternalUserKey(ikey), uk) {
		t.Error("InternalUserKey mismatch")
	}
	short := []byte{1, 2}
	if !bytes.Equal(InternalUserKey(short), short) {
		t.Error("short keys must be returned unchanged")
	}
}
