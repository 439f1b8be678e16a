// Package dnswire implements the DNS wire format (RFC 1035) from scratch:
// domain names with compression, resource records with typed RDATA, and
// full message packing and unpacking. It is the lowest substrate of the
// repository; every other package builds on it.
package dnswire

import (
	"errors"
	"fmt"
	"strings"
)

// Name is a fully-qualified, canonical (lower-case, trailing-dot) domain
// name. The root zone is ".". Use CanonicalName to build one from free-form
// input; the zero value is invalid.
type Name string

// Root is the name of the DNS root zone.
const Root Name = "."

// Wire-format limits from RFC 1035 §2.3.4.
const (
	// MaxNameWireLen is the maximum length of a name on the wire,
	// including the terminating zero octet.
	MaxNameWireLen = 255
	// MaxLabelLen is the maximum length of a single label.
	MaxLabelLen = 63
)

var (
	// ErrNameTooLong reports a name whose wire encoding exceeds 255 octets.
	ErrNameTooLong = errors.New("dnswire: name too long")
	// ErrLabelTooLong reports a label longer than 63 octets.
	ErrLabelTooLong = errors.New("dnswire: label too long")
	// ErrEmptyLabel reports an empty label inside a name ("a..b").
	ErrEmptyLabel = errors.New("dnswire: empty label")
	// ErrBadLabel reports a label with characters that cannot survive the
	// master-file presentation format (whitespace, control bytes, quotes,
	// parentheses, semicolons, or non-ASCII).
	ErrBadLabel = errors.New("dnswire: invalid character in label")
)

// labelCharOK reports whether c is safe in both wire and presentation
// form without escaping. DNS wire format technically allows any octet;
// this stack restricts names to the visible ASCII subset its master-file
// tokenizer can round-trip.
func labelCharOK(c byte) bool {
	if c <= 0x20 || c >= 0x7F {
		return false
	}
	switch c {
	case '.', '"', ';', '(', ')':
		return false
	}
	return true
}

// CanonicalName converts free-form input into a canonical Name: lower-case
// with a trailing dot. It validates label and total lengths.
func CanonicalName(s string) (Name, error) {
	if s == "" || s == "." {
		return Root, nil
	}
	if !strings.HasSuffix(s, ".") {
		s += "."
	}
	s = strings.ToLower(s)
	wireLen := 1 // terminating zero octet
	for _, label := range strings.Split(strings.TrimSuffix(s, "."), ".") {
		if label == "" {
			return "", fmt.Errorf("%w: %q", ErrEmptyLabel, s)
		}
		if len(label) > MaxLabelLen {
			return "", fmt.Errorf("%w: %q", ErrLabelTooLong, label)
		}
		for i := 0; i < len(label); i++ {
			if !labelCharOK(label[i]) {
				return "", fmt.Errorf("%w: %q", ErrBadLabel, label)
			}
		}
		wireLen += 1 + len(label)
	}
	if wireLen > MaxNameWireLen {
		return "", fmt.Errorf("%w: %q", ErrNameTooLong, s)
	}
	return Name(s), nil
}

// MustName is CanonicalName for constant inputs; it panics on invalid input
// and is intended for tests and literals.
func MustName(s string) Name {
	n, err := CanonicalName(s)
	if err != nil {
		panic(err)
	}
	return n
}

// String returns the textual form of the name.
func (n Name) String() string { return string(n) }

// IsRoot reports whether n is the root zone name.
func (n Name) IsRoot() bool { return n == Root }

// Labels returns the labels of the name from left to right. The root name
// has zero labels.
func (n Name) Labels() []string {
	if n.IsRoot() || n == "" {
		return nil
	}
	return strings.Split(strings.TrimSuffix(string(n), "."), ".")
}

// LabelCount returns the number of labels in the name; the root has zero.
func (n Name) LabelCount() int {
	if n.IsRoot() || n == "" {
		return 0
	}
	return strings.Count(string(n), ".")
}

// Parent returns the name with the leftmost label removed. The parent of
// the root is the root itself.
func (n Name) Parent() Name {
	if n.IsRoot() || n == "" {
		return Root
	}
	i := strings.IndexByte(string(n), '.')
	if i < 0 || i == len(n)-1 {
		return Root
	}
	return n[i+1:]
}

// IsSubdomainOf reports whether n is equal to, or falls below, ancestor.
// Every name is a subdomain of the root.
func (n Name) IsSubdomainOf(ancestor Name) bool {
	if ancestor.IsRoot() {
		return true
	}
	if n == ancestor {
		return true
	}
	return strings.HasSuffix(string(n), "."+string(ancestor))
}

// Child returns the name formed by prepending label to n.
func (n Name) Child(label string) (Name, error) {
	if label == "" {
		return "", ErrEmptyLabel
	}
	if n.IsRoot() {
		return CanonicalName(label + ".")
	}
	return CanonicalName(label + "." + string(n))
}

// Ancestors returns n and every ancestor of n up to and including the root,
// ordered from n itself to the root.
func (n Name) Ancestors() []Name {
	out := make([]Name, 0, n.LabelCount()+1)
	cur := n
	for {
		out = append(out, cur)
		if cur.IsRoot() {
			return out
		}
		cur = cur.Parent()
	}
}

// appendName appends the uncompressed wire encoding of n to b.
func appendName(b []byte, n Name) ([]byte, error) {
	if n == "" {
		return nil, errors.New("dnswire: empty name")
	}
	for _, label := range n.Labels() {
		if len(label) > MaxLabelLen {
			return nil, ErrLabelTooLong
		}
		b = append(b, byte(len(label)))
		b = append(b, label...)
	}
	return append(b, 0), nil
}

// wireLen returns the length of the uncompressed wire encoding of n.
func (n Name) wireLen() int {
	if n.IsRoot() {
		return 1
	}
	return len(n) + 1
}
