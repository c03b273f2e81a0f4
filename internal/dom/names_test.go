package dom

import (
	"encoding/xml"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestNameTablesMatchEncodingXML checks IsName on every rune, as a name's
// first character and as a later one, against encoding/xml reading the
// start tag <r/> and <ar/>: the Decoder must read that tag, under exactly
// that name, when and only when IsName holds.
func TestNameTablesMatchEncodingXML(t *testing.T) {
	decoderReads := func(name string) bool {
		tok, err := xml.NewDecoder(strings.NewReader("<" + name + "/>")).RawToken()
		start, ok := tok.(xml.StartElement)
		if err != nil || !ok {
			return false
		}
		n := start.Name
		if n.Space != "" {
			return n.Space+":"+n.Local == name
		}
		return n.Local == name
	}
	for r := rune(0); r <= utf8.MaxRune; r++ {
		if !utf8.ValidRune(r) {
			continue
		}
		for _, name := range []string{string(r), "a" + string(r)} {
			if got, want := IsName(name), decoderReads(name); got != want {
				t.Fatalf("IsName(%q) = %v, encoding/xml reads it: %v", name, got, want)
			}
		}
	}
}
