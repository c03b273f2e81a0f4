package dom

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// parseStd is the loader before the scanner: encoding/xml's Decoder, token
// by token, into a Builder. It is the scanner's oracle (FuzzLoadXML,
// TestScanMatchesEncodingXML): both must make the same accept/reject
// decision and build the same table. It drops white-space-only tokens by
// the scanner's rule, XML white space, written out independently here, and
// it rejects, as the scanner does, a name whose local part is not a Name
// (<a:0/>), which the Decoder accepts.
func parseStd(s, uri string) (*Document, error) {
	b := NewBuilder(uri)
	dec := xml.NewDecoder(strings.NewReader(s))
	depth := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dom: parse %s: %w", uri, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if !IsName(t.Name.Local) {
				return nil, fmt.Errorf("dom: parse %s: invalid XML name: %s", uri, t.Name.Local)
			}
			b.Begin(t.Name.Local)
			for _, a := range t.Attr {
				if !IsName(a.Name.Local) {
					return nil, fmt.Errorf("dom: parse %s: invalid XML name: %s", uri, a.Name.Local)
				}
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				b.Attrib(a.Name.Local, a.Value)
			}
			depth++
		case xml.EndElement:
			b.End()
			depth--
		case xml.CharData:
			if depth > 0 && strings.Trim(string(t), " \t\r\n") != "" {
				b.TextBytes(t)
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("dom: parse %s: unbalanced document", uri)
	}
	if err := b.Err(); err != nil {
		return nil, fmt.Errorf("dom: parse %s: %w", uri, err)
	}
	return b.Done(), nil
}

// ParseStd exports parseStd to the package's external tests.
var ParseStd = parseStd
