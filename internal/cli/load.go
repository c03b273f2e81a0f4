package cli

import (
	"errors"
	"fmt"
	"os"
	"strings"

	nalquery "nalquery"
)

// ErrDocSpec reports a -doc argument that is not uri=path.
var ErrDocSpec = errors.New("-doc needs uri=path")

// LoadDoc registers the document a -doc uri=path argument names (nalsh,
// nalserved): a .nalb binary store file through Engine.LoadStoreFile, so
// statistics saved with it are adopted rather than measured again, and any
// other file as XML.
func LoadDoc(eng *nalquery.Engine, spec string) error {
	uri, path, ok := strings.Cut(spec, "=")
	if !ok {
		return fmt.Errorf("%w, got %q", ErrDocSpec, spec)
	}
	if strings.HasSuffix(path, ".nalb") {
		return eng.LoadStoreFile(uri, path)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return eng.LoadXML(uri, f)
}
