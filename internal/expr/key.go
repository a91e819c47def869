package expr

import (
	"encoding/hex"
	"fmt"
)

// CanonVersion identifies the canonicalization algorithm that produced a
// Key. Persisted canonical keys (the campaign store's cross-run UNSAT cache,
// which is no longer written) are only meaningful under the algorithm that
// computed them: a normalization or numbering change silently re-keys every
// conjunction, so a stale cache would stop colliding at best and collide
// wrongly at worst. Bump this whenever canon.go changes the canonical form;
// loaders discard persisted keys whose recorded version differs.
const CanonVersion = 1

// MarshalText renders the key as lowercase hex, making Key usable directly
// in JSON values and JSON map keys for persistence.
func (k Key) MarshalText() ([]byte, error) {
	dst := make([]byte, hex.EncodedLen(len(k)))
	hex.Encode(dst, k[:])
	return dst, nil
}

// UnmarshalText parses the hex form written by MarshalText.
func (k *Key) UnmarshalText(text []byte) error {
	if hex.DecodedLen(len(text)) != len(k) {
		return fmt.Errorf("expr: key %q: want %d hex chars", text, hex.EncodedLen(len(k)))
	}
	_, err := hex.Decode(k[:], text)
	if err != nil {
		return fmt.Errorf("expr: key %q: %v", text, err)
	}
	return nil
}

// ParseKey parses the hex form of a key (Key.String / MarshalText).
func ParseKey(s string) (Key, error) {
	var k Key
	err := k.UnmarshalText([]byte(s))
	return k, err
}
