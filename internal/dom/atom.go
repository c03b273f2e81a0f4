package dom

import (
	"hash/maphash"
	"math"
	"strconv"
	"strings"
)

// A row's atom. Done reads the string value of every row that has at most
// AtomCutoff bytes of it once, under the number rule (ParseNumber), and keeps
// the outcome in the row's atom word, which sits in what would otherwise be
// the row's padding (Node.atag, Node.aword):
//
//   - a number m/10^k, with m an int32 and 0 ≤ k ≤ 7, as m and the tag
//     atomDec+k, when that division gives ParseNumber's float64 bit for bit;
//   - any other number (-0, NaN, ±Inf, wide mantissas) as an index into the
//     table's nums, under atomBoxed;
//   - text that is not a number as its TextHash, under atomText.
//
// A longer row is tagged atomUnknown and its reader parses it as before, so
// a document's load work for atoms is at most AtomCutoff bytes a row however
// deeply its text is nested.
const (
	atomUnknown byte = iota
	atomText
	atomBoxed
	atomDec
)

// AtomCutoff is the longest string value, in bytes, whose atom a row keeps.
const AtomCutoff = 64

// pow10 holds the divisors of the atomDec+k tags.
var pow10 = [8]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7}

// Atom reads the atom Done fixed for the row. known is false for a row whose
// string value is longer than AtomCutoff bytes: its reader calls ParseNumber
// and TextHash itself. Otherwise isNum reports whether the string value reads
// as a number, num is ParseNumber's value for it, and hash is its TextHash
// when it is text (0 for a number).
func (n *Node) Atom() (num float64, hash uint32, isNum, known bool) {
	switch t := n.atag; {
	case t >= atomDec:
		return float64(int32(n.aword)) / pow10[(t-atomDec)&7], 0, true, true
	case t == atomText:
		return 0, n.aword, false, true
	case t == atomBoxed:
		return n.table().nums[n.aword], 0, true, true
	}
	return 0, 0, false, false
}

// fixAtoms sets the atom word of every row. It walks the rows back to front,
// so an element whose string value is exactly its last text row's (a leaf
// element and its text, one range of the text slab) copies that row's word.
func (t *table) fixAtoms() {
	var prev *Node // the last row of the text slab whose atom was read
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := &t.nodes[i]
		switch {
		case n.lim-n.off > AtomCutoff:
		case prev != nil && n.kind != KindAttribute && n.off == prev.off && n.lim == prev.lim:
			n.atag, n.aword = prev.atag, prev.aword
		default:
			n.atag, n.aword = t.atom(n.StringValue())
			if n.kind != KindAttribute {
				prev = n
			}
		}
	}
}

// atom is the tag and word of a string value.
func (t *table) atom(s string) (byte, uint32) {
	f, ok := ParseNumber(s)
	if !ok {
		return atomText, TextHash(s)
	}
	if f == f {
		for k, p := range pow10 {
			m := math.Round(f * p)
			if m < math.MinInt32 || m > math.MaxInt32 {
				break
			}
			if math.Float64bits(float64(int32(m))/p) == math.Float64bits(f) { // int32 drops -0's sign
				return atomDec + byte(k), uint32(int32(m))
			}
		}
	}
	t.nums = append(t.nums, f)
	return atomBoxed, uint32(len(t.nums) - 1)
}

// ParseNumber is the number rule of untyped text: ok when s, trimmed of
// white space, parses as a float64 (strconv.ParseFloat's syntax, the Inf and
// NaN spellings included); f is then that number.
func ParseNumber(s string) (f float64, ok bool) {
	if t := strings.TrimSpace(s); looksNumeric(t) {
		if f, err := strconv.ParseFloat(t, 64); err == nil {
			return f, true
		}
	}
	return 0, false
}

// looksNumeric cheaply rejects strings that cannot parse as numbers, so
// ParseNumber does not pay strconv's allocated error for every non-numeric
// string. It admits everything strconv.ParseFloat accepts, including the
// Inf/NaN spellings.
func looksNumeric(s string) bool {
	if s == "" {
		return false
	}
	switch c := s[0]; {
	case c == '-' || c == '+' || c == '.' || ('0' <= c && c <= '9'):
		return true
	case c == 'i' || c == 'I' || c == 'n' || c == 'N':
		return strings.EqualFold(s, "inf") || strings.EqualFold(s, "infinity") ||
			strings.EqualFold(s, "nan")
	default:
		return false
	}
}

// textSeed keys TextHash, drawn once per process so that texts whose hashes
// collide cannot be computed ahead of time and fed to every process.
var textSeed = maphash.MakeSeed()

// TextHash is the 32-bit hash of a text that a row keeps and a text key
// (value.HashKey) carries, so hashing a key never walks its string: s under
// hash/maphash and textSeed, folded to 32 bits. Nothing persists it, and no
// output depends on it.
func TextHash(s string) uint32 {
	h := maphash.String(textSeed, s)
	return uint32(h ^ h>>32)
}
