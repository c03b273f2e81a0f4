package dom

import (
	"fmt"
	"io"
	"strings"
)

// Parse reads an XML document from r and builds the ordered node table. It
// reads r to the end first, into one string, and scans that (see
// ParseString); an error reading r is returned wrapped, so errors.As finds
// it.
func Parse(r io.Reader, uri string) (*Document, error) {
	var sb strings.Builder
	if _, err := io.Copy(&sb, r); err != nil {
		return nil, fmt.Errorf("dom: parse %s: %w", uri, err)
	}
	return ParseString(sb.String(), uri)
}

// ParseString parses an XML document held in s, without copying s: the
// table keeps its own copies of the names and values it holds. It accepts
// the XML that encoding/xml's Decoder accepts with its defaults (docs/API.md
// lists that subset). Every character-data token consisting of XML white
// space only (#x20, #x9, #xD, #xA) is dropped — the use-case DTDs are
// element-content DTDs where such whitespace is insignificant — and so is
// text outside the root element. Errors name the line they were found on.
func ParseString(s, uri string) (*Document, error) {
	return parse(s, NewBuilder(uri))
}

func parse(s string, b *Builder) (*Document, error) {
	p := scanner{s: s, b: b}
	err := p.run()
	if err == nil {
		err = b.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("dom: parse %s: %w", b.tab.uri, err)
	}
	return b.Done(), nil
}

// MustParseString parses a document and panics on error. For tests and
// examples.
func MustParseString(s, uri string) *Document {
	d, err := ParseString(s, uri)
	if err != nil {
		//nal:allow-panic Must* contract on authored test/example input; production parsing goes through Parse/ParseString (mustparse confines callers)
		panic(err)
	}
	return d
}
