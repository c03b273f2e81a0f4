package dom

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// scanner reads one XML document held in a string and calls the Builder
// for every element, attribute and text node, in one pass. It accepts the
// language encoding/xml's Decoder accepts with its defaults (strict, the
// five predefined entities only, UTF-8 only) and reads it into the same
// table; parseStd, the Decoder loop kept in this package's tests, is the
// oracle that holds it to that (FuzzLoadXML).
//
// It allocates nothing per token. Names, and values that need no decoding,
// are substrings of the input; a value with a reference or a carriage
// return is decoded into buf, one scratch buffer reused for the whole
// document. The Builder copies what it keeps into its slabs, so no table
// string aliases the input.
type scanner struct {
	s     string
	pos   int // the next unread byte
	b     *Builder
	buf   []byte
	open  []qname   // names of the open elements, innermost last
	attrs []attr    // the start tag being read
	binds []binding // xmlns:prefix declarations in scope, innermost last
	// xmlnsBound holds the prefixes whose innermost declaration in scope
	// binds them to "xmlns"; nil until a document declares a prefix.
	xmlnsBound map[string]bool
}

// attr is one attribute of the start tag being read.
type attr struct {
	name qname
	val  span
}

// qname locates an element or attribute name in the input, s[lo:hi], and
// its colon when the name splits there (text on both sides) into prefix
// and local part; else colon is -1 and the name is all local part. Nodes
// are named by the local part. The scanner's stacks hold offsets, not
// strings, so pushing a name costs the collector nothing.
type qname struct{ lo, hi, colon int }

func (p *scanner) full(n qname) string { return p.s[n.lo:n.hi] }

func (p *scanner) local(n qname) string {
	if n.colon < 0 {
		return p.s[n.lo:n.hi]
	}
	return p.s[n.colon+1 : n.hi]
}

func (p *scanner) prefix(n qname) string {
	if n.colon < 0 {
		return ""
	}
	return p.s[n.lo:n.colon]
}

// span locates character data: s[lo:hi] as written, or buf[lo:hi] decoded.
type span struct {
	lo, hi int
	dec    bool
}

// binding is an xmlns:prefix declaration of the open element at depth,
// with what it shadows, to restore when the element ends. Only whether a
// declaration binds its prefix to the name "xmlns" matters: the Decoder
// then reports the prefix's attributes in the "xmlns" space, and such
// attributes are declarations to the loader, which drops them.
type binding struct {
	prefix string
	shadow bool
	depth  int
}

// syntaxError rejects the input at a line.
type syntaxError struct {
	line int
	msg  string
}

func (e *syntaxError) Error() string {
	return fmt.Sprintf("XML syntax error on line %d: %s", e.line, e.msg)
}

// fail reports msg at the line of byte offset off, the end of what was read.
func (p *scanner) fail(off int, msg string) error {
	return &syntaxError{line: 1 + strings.Count(p.s[:off], "\n"), msg: msg}
}

func (p *scanner) eof() error { return p.fail(len(p.s), "unexpected EOF") }

// next consumes one byte; ok is false at the end of the input.
func (p *scanner) next() (c byte, ok bool) {
	if p.pos >= len(p.s) {
		return 0, false
	}
	p.pos++
	return p.s[p.pos-1], true
}

// run scans the whole input. Text outside the root element is read (and
// must be well-formed) but not kept; several root elements are accepted.
func (p *scanner) run() error {
	for p.pos < len(p.s) {
		var err error
		if p.s[p.pos] != '<' {
			err = p.text(false)
		} else if p.pos++; p.pos == len(p.s) {
			return p.eof()
		} else {
			switch p.s[p.pos] {
			case '/':
				err = p.endTag()
			case '?':
				err = p.procInst()
			case '!':
				err = p.bang()
			default:
				err = p.startTag()
			}
		}
		if err != nil {
			return err
		}
	}
	if len(p.open) > 0 {
		return p.eof()
	}
	return nil
}

// text reads one character-data token, a CDATA section's when cdata is
// set, and keeps it as a text node: inside an element, and unless it is
// XML white space only.
func (p *scanner) text(cdata bool) error {
	p.buf = p.buf[:0]
	v, err := p.charData(0, cdata)
	if err != nil || len(p.open) == 0 {
		return err
	}
	if v.dec {
		if !isSpace(p.buf[v.lo:v.hi]) {
			p.b.TextBytes(p.buf[v.lo:v.hi])
		}
	} else if !isSpace(p.s[v.lo:v.hi]) {
		p.b.Text(p.s[v.lo:v.hi])
	}
	return nil
}

// isSpace reports whether v consists of #x20, #x9, #xD and #xA only.
func isSpace[T string | []byte](v T) bool {
	for i := 0; i < len(v); i++ {
		if c := v[i]; c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return false
		}
	}
	return true
}

// startTag reads a start tag from just after its '<', then opens the
// element with the attributes no namespace declaration claims.
func (p *scanner) startTag() error {
	name, err := p.nsName("expected element name after <")
	if err != nil {
		return err
	}
	p.attrs, p.buf = p.attrs[:0], p.buf[:0]
	empty := false
	for {
		p.space()
		c, ok := p.next()
		if !ok {
			return p.eof()
		}
		if c == '/' {
			if c, ok = p.next(); !ok {
				return p.eof()
			} else if c != '>' {
				return p.fail(p.pos, "expected /> in element")
			}
			empty = true
			break
		}
		if c == '>' {
			break
		}
		p.pos--
		a := attr{}
		if a.name, err = p.nsName("expected attribute name in element"); err != nil {
			return err
		}
		p.space()
		if c, ok = p.next(); !ok {
			return p.eof()
		} else if c != '=' {
			return p.fail(p.pos, "attribute name without = in element")
		}
		p.space()
		if c, ok = p.next(); !ok {
			return p.eof()
		} else if c != '"' && c != '\'' {
			return p.fail(p.pos, "unquoted or missing attribute value in element")
		}
		if a.val, err = p.charData(c, false); err != nil {
			return err
		}
		p.attrs = append(p.attrs, a)
	}
	if err := p.checkLocal(name); err != nil {
		return err
	}
	for _, a := range p.attrs {
		if err := p.checkLocal(a.name); err != nil {
			return err
		}
	}

	p.open = append(p.open, name)
	for _, a := range p.attrs {
		if p.prefix(a.name) == "xmlns" {
			p.bind(p.local(a.name), a.val)
		}
	}
	p.b.Begin(p.local(name))
	for _, a := range p.attrs {
		local, prefix := p.local(a.name), p.prefix(a.name)
		if local == "xmlns" || prefix == "xmlns" || p.boundToXmlns(prefix) {
			continue
		}
		if v := a.val; v.dec {
			p.b.AttribBytes(local, p.buf[v.lo:v.hi])
		} else {
			p.b.Attrib(local, p.s[v.lo:v.hi])
		}
	}
	if empty {
		p.close()
	}
	return nil
}

// bind declares prefix, with value v, on the innermost open element.
func (p *scanner) bind(prefix string, v span) {
	if p.xmlnsBound == nil {
		p.xmlnsBound = map[string]bool{}
	}
	p.binds = append(p.binds, binding{prefix: prefix, shadow: p.xmlnsBound[prefix], depth: len(p.open)})
	if v.dec {
		p.xmlnsBound[prefix] = string(p.buf[v.lo:v.hi]) == "xmlns"
	} else {
		p.xmlnsBound[prefix] = p.s[v.lo:v.hi] == "xmlns"
	}
}

// boundToXmlns reports whether the innermost declaration of prefix in
// scope binds it to "xmlns". The prefixes "" and "xml" are never looked up.
func (p *scanner) boundToXmlns(prefix string) bool {
	return prefix != "" && prefix != "xml" && p.xmlnsBound[prefix]
}

// close ends the innermost open element and the declarations it made.
func (p *scanner) close() {
	p.open = p.open[:len(p.open)-1]
	for len(p.binds) > 0 && p.binds[len(p.binds)-1].depth > len(p.open) {
		b := p.binds[len(p.binds)-1]
		p.xmlnsBound[b.prefix] = b.shadow
		p.binds = p.binds[:len(p.binds)-1]
	}
	p.b.End()
}

// endTag reads an end tag from its '/' and closes the element it names,
// which must be the innermost open one, prefix included.
func (p *scanner) endTag() error {
	p.pos++
	// The common case first: the innermost open name, which its start tag
	// proved a name, then '>'.
	if n := len(p.open); n > 0 {
		top, at := p.full(p.open[n-1]), p.pos
		if end := at + len(top); end < len(p.s) && p.s[at:end] == top && !nameByte(p.s[end]) {
			p.pos = end
			p.space()
			if c, ok := p.next(); ok && c == '>' {
				p.close()
				return nil
			}
			p.pos = at
		}
	}
	name, err := p.nsName("expected element name after </")
	if err != nil {
		return err
	}
	p.space()
	c, ok := p.next()
	if !ok {
		return p.eof()
	}
	local := p.local(name)
	switch {
	case c != '>':
		return p.fail(p.pos, "invalid characters between </"+local+" and >")
	case len(p.open) == 0:
		return p.fail(p.pos, "unexpected end element </"+local+">")
	}
	if top := p.open[len(p.open)-1]; p.full(top) != p.full(name) {
		if p.local(top) != local {
			return p.fail(p.pos, "element <"+p.local(top)+"> closed by </"+local+">")
		}
		space := p.prefix(name)
		if space == "" {
			space = `""`
		}
		return p.fail(p.pos, "element <"+p.local(top)+"> in space "+p.prefix(top)+" closed by </"+local+"> in space "+space)
	}
	p.close()
	return nil
}

// procInst reads a processing instruction from its '?'. It is dropped; an
// XML declaration (target "xml", anywhere) must declare version 1.0 and
// UTF-8 if it declares either.
func (p *scanner) procInst() error {
	p.pos++
	target, _, err := p.name("expected target name after <?")
	if err != nil {
		return err
	}
	p.space()
	k := strings.Index(p.s[p.pos:], "?>")
	if k < 0 {
		return p.eof()
	}
	body := p.s[p.pos : p.pos+k]
	p.pos += k + 2
	if target != "xml" {
		return nil
	}
	if v := pseudoAttr(body, "version="); v != "" && v != "1.0" {
		return p.fail(p.pos, fmt.Sprintf("unsupported version %q; only version 1.0 is supported", v))
	}
	if enc := pseudoAttr(body, "encoding="); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return p.fail(p.pos, fmt.Sprintf("encoding %q declared; only UTF-8 is read", enc))
	}
	return nil
}

// pseudoAttr finds name="value" or name='value' in an XML declaration's
// body the way the Decoder does, with key the name and its '=': the first
// occurrence of key followed by a quote, then the value up to the same
// quote. An occurrence followed by anything else is skipped together with
// that byte.
func pseudoAttr(body, key string) string {
	for i := 0; i < len(body); {
		k := strings.Index(body[i:], key)
		if k < 0 || i+k+len(key) >= len(body) {
			return ""
		}
		i += k + len(key)
		q := body[i]
		i++
		if q == '"' || q == '\'' {
			if j := strings.IndexByte(body[i:], q); j >= 0 {
				return body[i : i+j]
			}
			return ""
		}
	}
	return ""
}

// bang reads a comment, a CDATA section or a directive from its '!'.
// Comments and directives (a DOCTYPE with its internal subset, say) are
// dropped unread: their entity declarations are not expanded. A CDATA
// section is a character-data token of its own.
func (p *scanner) bang() error {
	p.pos++
	c, ok := p.next()
	if !ok {
		return p.eof()
	}
	switch c {
	case '-':
		if c, ok = p.next(); !ok {
			return p.eof()
		} else if c != '-' {
			return p.fail(p.pos, "invalid sequence <!- not part of <!--")
		}
		k := strings.Index(p.s[p.pos:], "--")
		if k < 0 {
			return p.eof()
		}
		p.pos += k + 2
		if c, ok = p.next(); !ok {
			return p.eof()
		} else if c != '>' {
			return p.fail(p.pos, `invalid sequence "--" not allowed in comments`)
		}
		return nil
	case '[':
		for i := 0; i < len("CDATA["); i++ {
			if c, ok = p.next(); !ok {
				return p.eof()
			} else if c != "CDATA["[i] {
				return p.fail(p.pos, "invalid <![ sequence")
			}
		}
		return p.text(true)
	}
	return p.directive()
}

// directive skips a directive whose first byte was read: up to a '>'
// outside quotes where every '<' met so far has had its '>'. A "<!--"
// inside opens a comment that runs to "-->".
func (p *scanner) directive() error {
	var quote byte
	depth := 0
	for {
		c, ok := p.next()
		if !ok {
			return p.eof()
		}
		if quote == 0 && c == '>' && depth == 0 {
			return nil
		}
		// A '<' that does not open a comment hands the byte that broke
		// "<!--" back to this switch.
	classify:
		switch {
		case c == quote:
			quote = 0
		case quote != 0:
		case c == '\'' || c == '"':
			quote = c
		case c == '>':
			depth--
		case c == '<':
			for i := 0; i < len("!--"); i++ {
				if c, ok = p.next(); !ok {
					return p.eof()
				}
				if c != "!--"[i] {
					depth++
					goto classify
				}
			}
			k := strings.Index(p.s[p.pos:], "-->")
			if k < 0 {
				return p.eof()
			}
			p.pos += k + 3
		}
	}
}

// space skips XML white space.
func (p *scanner) space() {
	for p.pos < len(p.s) {
		switch p.s[p.pos] {
		case ' ', '\r', '\n', '\t':
			p.pos++
		default:
			return
		}
	}
}

// nameClass classifies the ASCII bytes a name is read from: startsName
// bytes may begin one (letters, '_', ':'), continuesName bytes only
// continue one (digits, '.', '-'). Every non-ASCII byte is read into a
// name too, and IsName decides on its characters.
const (
	continuesName = 1 << iota
	startsName
)

var nameClass = func() (t [256]uint8) {
	for c := range t {
		switch {
		case 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' || c == ':':
			t[c] = startsName
		case '0' <= c && c <= '9' || c == '.' || c == '-':
			t[c] = continuesName
		}
	}
	return t
}()

// nameByte reports whether the Decoder reads c as part of a name.
func nameByte(c byte) bool { return c >= utf8.RuneSelf || nameClass[c] != 0 }

// name reads a name, and counts its colons. A name needs a byte after it,
// and missing is the message when there is none at all.
func (p *scanner) name(missing string) (name string, colons int, err error) {
	s := p.s
	i, ascii := p.pos, true
	for ; i < len(s); i++ {
		if c := s[i]; c >= utf8.RuneSelf {
			ascii = false
		} else if nameClass[c] == 0 {
			break
		} else if c == ':' {
			colons++
		}
	}
	switch {
	case i == len(s):
		return "", 0, p.eof()
	case i == p.pos:
		return "", 0, p.fail(i, missing)
	}
	name, p.pos = s[p.pos:i], i
	if ascii && nameClass[name[0]] != startsName || !ascii && !IsName(name) {
		return "", 0, p.fail(i, "invalid XML name: "+name)
	}
	return name, colons, nil
}

// nsName reads an element or attribute name, which holds one ':' at most.
func (p *scanner) nsName(missing string) (qname, error) {
	name, colons, err := p.name(missing)
	switch {
	case err != nil:
		return qname{}, err
	case colons > 1:
		return qname{}, p.fail(p.pos, missing)
	}
	n := qname{lo: p.pos - len(name), hi: p.pos, colon: -1}
	if colons == 1 {
		if k := strings.IndexByte(name, ':'); k > 0 && k < len(name)-1 {
			n.colon = n.lo + k
		}
	}
	return n, nil
}

// checkLocal fails a name split at its colon whose local part is not a Name
// of its own. A node is known by its local part, so the Decoder's <a:0/>
// would be an element named 0, which no serialization of it could be read
// back as. A start tag is checked once it is complete, as parseStd checks
// the Decoder's token, so a tag the Decoder rejects for another reason
// fails with the Decoder's error.
func (p *scanner) checkLocal(n qname) error {
	if n.colon >= 0 && !IsName(p.local(n)) {
		return p.fail(p.pos, "invalid XML name: "+p.full(n))
	}
	return nil
}

// IsName reports whether s matches the XML 1.0 Name production.
func IsName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if i == 0 && nameClass[c] != startsName || nameClass[c] == 0 {
				return false
			}
			i++
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		tab := nameChar
		if i == 0 {
			tab = nameStart
		}
		if r == utf8.RuneError && n == 1 || !unicode.Is(tab, r) {
			return false
		}
		i += n
	}
	return true
}

// isChar reports whether r matches the XML 1.0 Char production.
func isChar(r rune) bool {
	return r == '\t' || r == '\n' || r == '\r' || r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= utf8.MaxRune
}

// plain marks the bytes character data passes over without a second look:
// ASCII characters that end or change no token.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`<&]"'`, c)
	}
	t['\t'], t['\n'] = true, true
	return t
}()

// charData reads character data from p.pos: element text up to the next
// '<' (left unread) or the end of the input when quote is 0 and cdata is
// false, an attribute value up to its closing quote, or a CDATA section up
// to "]]>". References are decoded (not in CDATA), and "\r\n" and a lone
// '\r' read as '\n'; when either occurs the data is decoded into buf.
//
// The data must be UTF-8 of XML characters. Like the Decoder, which checks
// the decoded data once it is read, the scan reports the first bad
// character only if nothing else is wrong with the token.
func (p *scanner) charData(quote byte, cdata bool) (span, error) {
	s := p.s
	v := span{lo: p.pos}
	i, mark := p.pos, p.pos // s[mark:i] is not yet in buf when decoding
	bad := ""               // what is wrong with the first bad character
	flush := func() {
		if !v.dec {
			v.dec, v.lo = true, len(p.buf)
		}
		p.buf = append(p.buf, s[mark:i]...)
	}
	end := -1
scan:
	for i < len(s) {
		c := s[i]
		if plain[c] {
			i++
			continue
		}
		if c >= utf8.RuneSelf {
			r, n := utf8.DecodeRuneInString(s[i:])
			if bad == "" && r == utf8.RuneError && n == 1 {
				bad = "invalid UTF-8"
			} else if bad == "" && !isChar(r) {
				bad = fmt.Sprintf("illegal character code %U", r)
			}
			i += n
			continue
		}
		switch {
		case c == '<' && !cdata:
			if quote != 0 {
				return v, p.fail(i+1, "unescaped < inside quoted string")
			}
			end, p.pos = i, i
			break scan
		case c == quote && quote != 0:
			end, p.pos = i, i+1
			break scan
		case c == ']' && strings.HasPrefix(s[i:], "]]>"):
			if cdata {
				end, p.pos = i, i+3
				break scan
			}
			if quote == 0 {
				return v, p.fail(i+3, "unescaped ]]> not in CDATA section")
			}
			i++
		case c == '&' && !cdata:
			flush()
			r, next, err := p.reference(i)
			if err != nil {
				return v, err
			}
			if !utf8.ValidRune(r) {
				r = utf8.RuneError
			}
			if bad == "" && !isChar(r) {
				bad = fmt.Sprintf("illegal character code %U", r)
			}
			p.buf = utf8.AppendRune(p.buf, r)
			i, mark = next, next
		case c == '\r':
			flush()
			p.buf = append(p.buf, '\n')
			i++
			if i < len(s) && s[i] == '\n' {
				i++
			}
			mark = i
		default:
			if bad == "" && c < 0x20 && c != '\t' && c != '\n' {
				bad = fmt.Sprintf("illegal character code %U", rune(c))
			}
			i++
		}
	}
	if end < 0 {
		if cdata {
			return v, p.fail(len(s), "unexpected EOF in CDATA section")
		}
		end, p.pos = len(s), len(s)
	}
	if bad != "" {
		return v, p.fail(p.pos, bad)
	}
	if v.dec {
		i = end
		flush()
		v.hi = len(p.buf)
	} else {
		v.hi = end
	}
	return v, nil
}

// reference decodes the entity or character reference starting at s[i],
// an '&'. It returns the character and the offset after the ';'.
func (p *scanner) reference(i int) (r rune, next int, err error) {
	s := p.s
	j := i + 1
	if j < len(s) && s[j] == '#' {
		j++
		base := 10
		if j < len(s) && s[j] == 'x' {
			base = 16
			j++
		}
		digits := j
		for j < len(s) && (s[j] >= '0' && s[j] <= '9' ||
			base == 16 && (s[j] >= 'a' && s[j] <= 'f' || s[j] >= 'A' && s[j] <= 'F')) {
			j++
		}
		if j == len(s) {
			return 0, 0, p.eof()
		}
		if s[j] != ';' {
			return 0, 0, p.fail(j, "invalid character entity "+s[i:j]+" (no semicolon)")
		}
		n, err := strconv.ParseUint(s[digits:j], base, 64)
		if err != nil || n > unicode.MaxRune {
			return 0, 0, p.fail(j+1, "invalid character entity "+s[i:j+1])
		}
		return rune(n), j + 1, nil
	}
	for j < len(s) && nameByte(s[j]) {
		j++
	}
	if j == len(s) {
		return 0, 0, p.eof()
	}
	if s[j] != ';' {
		return 0, 0, p.fail(j, "invalid character entity "+s[i:j]+" (no semicolon)")
	}
	switch s[i+1 : j] {
	case "lt":
		r = '<'
	case "gt":
		r = '>'
	case "amp":
		r = '&'
	case "apos":
		r = '\''
	case "quot":
		r = '"'
	default:
		return 0, 0, p.fail(j+1, "invalid character entity "+s[i:j+1])
	}
	return r, j + 1, nil
}
