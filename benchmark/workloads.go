package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"

	nalquery "nalquery"
	"nalquery/internal/dom"
	"nalquery/internal/qgen"
	"nalquery/internal/server"
	"nalquery/internal/stats"
	"nalquery/internal/store"
	"nalquery/internal/xmlgen"
)

// workloadNames is the declared order; BENCHMARK.json lists the same four.
var workloadNames = []string{"paper_plans", "adhoc_compile", "served_lookup", "reload_mix"}

// generate builds the named workload's inputs from the seed. scale 1 is the
// declared size; the smoke test runs at about 1/100. dir is a scratch
// directory inside the checkout for the workloads that read files.
func generate(name string, seed int64, scale float64, dir string) (*inputs, error) {
	switch name {
	case "paper_plans":
		return genPaperPlans(seed, scale)
	case "adhoc_compile":
		return genAdhocCompile(seed, scale)
	case "served_lookup":
		return genServedLookup(seed, scale, dir)
	case "reload_mix":
		return genReloadMix(seed, scale)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

func scaled(full int, scale float64, floor int) int {
	return max(int(float64(full)*scale), floor)
}

// corpus generates the six use-case documents at the given size from the
// seed, and the DBLP-like document when publications > 0.
func corpus(seed int64, size, publications int) []*dom.Document {
	cfg := xmlgen.DefaultConfig(size)
	cfg.Seed = seed
	docs := useCases(cfg)
	if publications > 0 {
		docs = append(docs, xmlgen.DBLP(xmlgen.DBLPConfig{Seed: seed, Publications: publications}))
	}
	return docs
}

func useCases(cfg xmlgen.Config) []*dom.Document {
	return []*dom.Document{xmlgen.Bib(cfg), xmlgen.Reviews(cfg), xmlgen.Prices(cfg),
		xmlgen.Users(cfg), xmlgen.Items(cfg), xmlgen.Bids(cfg)}
}

// docText is a document as the system under test receives it.
type docText struct{ uri, xml string }

func serialize(docs []*dom.Document) []docText {
	out := make([]docText, len(docs))
	for i, d := range docs {
		out[i] = docText{d.URI, dom.XMLString(d.Root)}
	}
	return out
}

func engineOf(docs []*dom.Document) *nalquery.Engine {
	eng := nalquery.NewEngine()
	for _, d := range docs {
		eng.LoadDocument(d)
	}
	return eng
}

func loadTexts(eng *nalquery.Engine, texts []docText) error {
	for _, d := range texts {
		if err := eng.LoadXMLString(d.uri, d.xml); err != nil {
			return fmt.Errorf("load %s: %w", d.uri, err)
		}
	}
	return nil
}

// --- the output oracle ---

func runBytes(q *nalquery.Query, opts ...nalquery.RunOption) ([]byte, error) {
	res, err := q.Run(context.Background(), opts...)
	if err != nil {
		return nil, err
	}
	defer res.Close()
	var buf bytes.Buffer
	if err := res.WriteXML(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// independent evaluates q by a route the timed run does not take: an
// unnested plan alternative other than the cost-chosen one where the query
// has one, else the nested plan on the definitional evaluator (which is then
// linear, because there was nothing to unnest).
func independent(q *nalquery.Query, binds []nalquery.RunOption) ([]byte, error) {
	chosen, err := q.Plan("")
	if err != nil {
		return nil, err
	}
	for _, p := range q.Plans() {
		if p.Name != chosen.Name && !strings.Contains(p.Name, "nested") {
			return runBytes(q, append(binds, nalquery.WithPlan(p.Name))...)
		}
	}
	return definitional(q, binds)
}

func definitional(q *nalquery.Query, binds []nalquery.RunOption) ([]byte, error) {
	return runBytes(q, append(binds, nalquery.WithReferenceEngine(), nalquery.WithPlan("nested"))...)
}

// expect compiles s on the oracle engine, checks that its cost-chosen plan
// and the independent route agree byte for byte, and returns those bytes.
func expect(oracle *nalquery.Engine, s stmt) ([]byte, error) {
	q, err := oracle.Compile(s.text)
	if err != nil {
		return nil, fmt.Errorf("oracle: compile %s: %w", s.name, err)
	}
	got, err := runBytes(q, s.opts()...)
	if err != nil {
		return nil, fmt.Errorf("oracle: run %s: %w", s.name, err)
	}
	want, err := independent(q, s.opts())
	if err != nil {
		return nil, fmt.Errorf("oracle: independent run of %s: %w", s.name, err)
	}
	if !bytes.Equal(got, want) {
		return nil, fmt.Errorf("oracle: %s: the cost-chosen plan and an independent plan disagree (%d vs %d bytes)",
			s.name, len(got), len(want))
	}
	return want, nil
}

// checkSmall is the size-100 oracle: every statement's cost-chosen plan must
// equal the nested plan on the definitional evaluator, which is quadratic and
// so affordable only here.
func checkSmall(seed int64, stmts []stmt) error {
	small := engineOf(corpus(seed, 100, 100))
	for _, s := range stmts {
		q, err := small.Compile(s.text)
		if err != nil {
			return fmt.Errorf("oracle@100: compile %s: %w", s.name, err)
		}
		got, err := runBytes(q, s.opts()...)
		if err != nil {
			return fmt.Errorf("oracle@100: run %s: %w", s.name, err)
		}
		want, err := definitional(q, s.opts())
		if err != nil {
			return fmt.Errorf("oracle@100: definitional run of %s: %w", s.name, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("oracle@100: %s differs from the nested plan on the definitional evaluator", s.name)
		}
	}
	return nil
}

// --- paper_plans ---

var paperIDs = []string{"q1", "q1dblp", "q2", "q3", "q4", "q5", "q6"}

func paperStmts(ids []string) []stmt {
	out := make([]stmt, len(ids))
	for i, id := range ids {
		out[i] = stmt{name: id, text: nalquery.PaperQueries[id]}
	}
	return out
}

func genPaperPlans(seed int64, scale float64) (*inputs, error) {
	size := scaled(5000, scale, 20)
	stmts := paperStmts(paperIDs)
	if err := checkSmall(seed, stmts); err != nil {
		return nil, err
	}
	docs := corpus(seed, size, size)
	oracle := engineOf(docs)
	wants := make([][sha256.Size]byte, len(stmts))
	for i, s := range stmts {
		b, err := expect(oracle, s)
		if err != nil {
			return nil, err
		}
		wants[i] = sha256.Sum256(b)
	}
	texts := serialize(docs)
	// Prepared statements never consult the plan cache: 0 hits, 0 misses.
	in := &inputs{classes: paperIDs, passes: 5, shuffle: true, stmts: stmts,
		mainURI: texts[0].uri, mainXML: texts[0].xml}
	in.setup = func() (*instance, error) {
		eng := nalquery.NewEngine()
		if err := loadTexts(eng, texts); err != nil {
			return nil, err
		}
		inst := &instance{eng: eng}
		for i, s := range stmts {
			p, err := eng.Prepare(s.text)
			if err != nil {
				return nil, fmt.Errorf("prepare %s: %w", s.name, err)
			}
			inst.ops = append(inst.ops, op{class: i, name: s.name, want: wants[i], do: runPrepared(p)})
		}
		return inst, nil
	}
	return in, nil
}

// runPrepared is a library operation: the cost-chosen plan, serialized.
func runPrepared(p *nalquery.Prepared, opts ...nalquery.RunOption) func(*capture) error {
	return func(out *capture) error {
		res, err := p.Run(context.Background(), opts...)
		if err != nil {
			return err
		}
		defer res.Close()
		return res.WriteXML(out)
	}
}

// runText is an ad-hoc operation: the text goes through the plan cache.
func runText(eng *nalquery.Engine, text string) func(*capture) error {
	return func(out *capture) error {
		res, err := eng.RunText(context.Background(), text)
		if err != nil {
			return err
		}
		defer res.Close()
		return res.WriteXML(out)
	}
}

// --- adhoc_compile ---

// adhocTextSeed fixes the population of query texts under every --seed (it
// is the repository's pinned qgen sweep seed). The seed then decides the
// documents and the order of the cycle. A population drawn anew per seed
// moves mallocs_per_op by 17 % from one seed to the next, because a handful
// of texts out of 400 carry a tenth of all allocations.
const adhocTextSeed = 20240808

// tinyDocs is the qgen corpus: the six use-case documents at the size the
// generator's sample literals are written for.
func tinyDocs(seed int64) []*dom.Document {
	size, apb := qgen.DocSizes()
	cfg := xmlgen.DefaultConfig(size)
	cfg.Seed, cfg.AuthorsPerBook = seed, apb
	return useCases(cfg)
}

func genAdhocCompile(seed int64, scale float64) (*inputs, error) {
	// More texts than the plan cache holds, at any scale: cycling through
	// them in a fixed order then misses every time.
	n := scaled(400, scale, nalquery.DefaultPlanCacheSize+22)
	docs := tinyDocs(seed)
	oracle := engineOf(docs)
	reference := engineOf(tinyDocs(adhocTextSeed))
	g := qgen.New(qgen.Config{Seed: adhocTextSeed})
	var stmts []stmt
	var wants [][sha256.Size]byte
	seen := map[string]bool{}
	for tries := 0; len(stmts) < n; tries++ {
		if tries > 20*n {
			return nil, fmt.Errorf("adhoc_compile: the generator yielded %d accepted texts in %d tries", len(stmts), tries)
		}
		text := g.Query().Text
		if seen[text] {
			continue
		}
		seen[text] = true
		// In the population: texts the engine accepts and whose cost-chosen
		// plan evaluates no nested expression on the reference documents, so
		// that execution stays negligible beside compilation. Both are
		// decided on fixed documents, not on the seed's.
		rq, err := reference.Compile(text)
		if err != nil {
			var pe *nalquery.ParseError
			var te *nalquery.TranslateError
			if errors.As(err, &pe) || errors.As(err, &te) {
				continue // outside the supported subset: a typed rejection
			}
			return nil, fmt.Errorf("compile of generated text %q: %w", text, err)
		}
		var st nalquery.Stats
		if _, err := runBytes(rq, nalquery.WithStats(&st)); err != nil {
			return nil, fmt.Errorf("run of generated text %q: %w", text, err)
		}
		if st.NestedEvals > 0 {
			continue
		}
		s := stmt{name: fmt.Sprintf("gen%d", tries), text: text}
		q, err := oracle.Compile(text)
		if err != nil {
			return nil, fmt.Errorf("oracle: compile %s %q: %w", s.name, text, err)
		}
		got, err := runBytes(q)
		if err != nil {
			return nil, fmt.Errorf("oracle: run %s %q: %w", s.name, text, err)
		}
		// The documents are tiny, so the definitional nested plan is the
		// oracle at full size here.
		want, err := definitional(q, nil)
		if err != nil {
			return nil, fmt.Errorf("oracle: definitional run of %s %q: %w", s.name, text, err)
		}
		if !bytes.Equal(got, want) {
			return nil, fmt.Errorf("oracle: %s %q differs from the nested plan on the definitional evaluator", s.name, text)
		}
		stmts = append(stmts, s)
		wants = append(wants, sha256.Sum256(want))
	}
	// The seed's part of the cycle: its order.
	rand.New(rand.NewSource(seed)).Shuffle(len(stmts), func(i, j int) {
		stmts[i], stmts[j] = stmts[j], stmts[i]
		wants[i], wants[j] = wants[j], wants[i]
	})
	// Classes by text-length tercile.
	lens := make([]int, len(stmts))
	for i, s := range stmts {
		lens[i] = len(s.text)
	}
	sort.Ints(lens)
	lo, hi := lens[len(lens)/3], lens[2*len(lens)/3]
	classOf := func(text string) int {
		switch {
		case len(text) < lo:
			return 0
		case len(text) < hi:
			return 1
		}
		return 2
	}
	// The resident document no query touches: compile cost's dependence on
	// the total loaded data shows against it.
	resident := xmlgen.DBLP(xmlgen.DBLPConfig{Seed: seed, Publications: scaled(5000, scale, 20)})
	texts := serialize(append(docs, resident))
	in := &inputs{classes: []string{"small", "medium", "large"}, passes: 1, stmts: stmts,
		misses: int64(len(stmts)), mainURI: resident.URI, mainXML: texts[len(texts)-1].xml}
	in.setup = func() (*instance, error) {
		eng := nalquery.NewEngine()
		if err := loadTexts(eng, texts); err != nil {
			return nil, err
		}
		inst := &instance{eng: eng}
		for i, s := range stmts {
			inst.ops = append(inst.ops, op{class: classOf(s.text), name: s.name, want: wants[i], do: runText(eng, s.text)})
		}
		return inst, nil
	}
	return in, nil
}

// --- the in-process serving tier ---

// serve drives the handler the way net/http would, minus the socket: one
// request value reused, the capture as its ResponseWriter.
func serve(h http.Handler, method, target, body string, wantStatus int) func(*capture) error {
	u, err := url.ParseRequestURI(target)
	if err != nil {
		panic(err) // targets are built by this file
	}
	tmpl := http.Request{Method: method, URL: u, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{}, Host: "bench", RequestURI: target, ContentLength: int64(len(body))}
	var req http.Request
	var rd bodyReader
	return func(out *capture) error {
		req = tmpl
		rd.Reset(body)
		req.Body = &rd
		h.ServeHTTP(out, &req)
		if out.status != wantStatus {
			return fmt.Errorf("%s %s: status %d: %.200s", method, target, out.status, out.buf)
		}
		return nil
	}
}

type bodyReader struct{ strings.Reader }

func (*bodyReader) Close() error { return nil }

func newServer(eng *nalquery.Engine) *server.Server {
	return server.New(eng, server.Config{}, log.New(io.Discard, "", 0))
}

const (
	byTitleText = `
declare variable $t external;
let $d := doc("bib.xml")
for $b in $d//book
where $b/title = $t
return $b`
	byYearText = `
declare variable $y external;
let $d := doc("bib.xml")
for $b in $d//book
where $b/@year = $y
return $b/title`
	streamText = `
let $d1 := doc("bib.xml")
for $t1 in $d1//book/title
return <t>{ $t1 }</t>`
)

// cachedText is the ad-hoc text of one year: few enough distinct texts that
// all stay in the plan cache.
func cachedText(year int) string {
	return fmt.Sprintf(`
let $d := doc("bib.xml")
for $b in $d//book
where $b/@year = %d
return $b/title`, year)
}

// --- served_lookup ---

func genServedLookup(seed int64, scale float64, dir string) (*inputs, error) {
	size := scaled(5000, scale, 50)
	nkeys := scaled(500, scale, 10)
	stmts := []stmt{
		{name: "bytitle", text: byTitleText, binds: map[string]any{"t": "Title 7"}},
		{name: "byyear", text: byYearText, binds: map[string]any{"y": 1995}},
		{name: "cached_text", text: cachedText(1995)},
		{name: "stream", text: streamText},
	}
	if err := checkSmall(seed, stmts); err != nil {
		return nil, err
	}
	docs := corpus(seed, size, 0)
	oracle := engineOf(docs)

	// The benchmark's own count over the DOM: books per title and per year.
	perTitle, perYear := map[string]int{}, map[int]int{}
	var years []int
	for _, b := range docs[0].RootElement().ChildElements("book") {
		perTitle[b.FirstChildElement("title").StringValue()]++
		var y int
		fmt.Sscan(b.Attr("year").StringValue(), &y)
		if perYear[y] == 0 {
			years = append(years, y)
		}
		perYear[y]++
	}
	sort.Ints(years)

	type planned struct {
		class        int
		name, target string
		body         string
		want         [sha256.Size]byte
	}
	var plan []planned
	memo := map[string][]byte{}
	add := func(class int, s stmt, target, body, tag string, hits int) error {
		b, ok := memo[s.name]
		if !ok {
			var err error
			if b, err = expect(oracle, s); err != nil {
				return err
			}
			memo[s.name] = b
		}
		if got := bytes.Count(b, []byte(tag)); got != hits {
			return fmt.Errorf("oracle: %s returns %d hits, the DOM holds %d", s.name, got, hits)
		}
		plan = append(plan, planned{class, s.name, target, body, sha256.Sum256(b)})
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	for _, k := range rng.Perm(size)[:nkeys] {
		title := fmt.Sprintf("Title %d", k)
		s := stmt{name: "bytitle/" + title, text: byTitleText, binds: map[string]any{"t": title}}
		if err := add(0, s, "/prepared/bytitle?var=t="+url.QueryEscape(title), "", "<book ", perTitle[title]); err != nil {
			return nil, err
		}
	}
	for rep := 0; rep < 2; rep++ {
		for _, y := range years {
			s := stmt{name: fmt.Sprintf("byyear/%d", y), text: byYearText, binds: map[string]any{"y": y}}
			if err := add(1, s, fmt.Sprintf("/prepared/byyear?var=y=%d", y), "", "<title>", perYear[y]); err != nil {
				return nil, err
			}
		}
	}
	for rep := 0; rep < 4; rep++ {
		for _, y := range years {
			s := stmt{name: fmt.Sprintf("cached_text/%d", y), text: cachedText(y)}
			if err := add(2, s, "/query", s.text, "<title>", perYear[y]); err != nil {
				return nil, err
			}
		}
	}
	for rep := 0; rep < 10; rep++ {
		if err := add(3, stmts[3], "/prepared/stream", "", "<t>", len(perTitle)); err != nil {
			return nil, err
		}
	}

	// The corpus as NALB2 files, statistics included.
	// Only names cross into setup: holding the generated DOMs there would
	// count them in heap_after_setup_mb.
	uris, paths := make([]string, len(docs)), make([]string, len(docs))
	for i, d := range docs {
		uris[i] = d.URI
		paths[i] = filepath.Join(dir, strings.TrimSuffix(d.URI, ".xml")+".nalb")
		if err := store.SaveFileStats(paths[i], d, stats.Analyze(d)); err != nil {
			return nil, err
		}
	}
	// Only cached_text consults the plan cache, and always finds its text.
	in := &inputs{classes: []string{"bytitle", "byyear", "cached_text", "stream"}, passes: 10, shuffle: true,
		stmts: stmts, hits: int64(4 * len(years)), mainURI: uris[0], mainXML: dom.XMLString(docs[0].Root)}
	in.setup = func() (*instance, error) {
		eng := nalquery.NewEngine()
		for i, uri := range uris {
			if err := eng.LoadStoreFile(uri, paths[i]); err != nil {
				return nil, fmt.Errorf("load %s: %w", paths[i], err)
			}
		}
		srv := newServer(eng)
		for _, s := range []stmt{stmts[0], stmts[1], stmts[3]} {
			if err := srv.RegisterPrepared(s.name, s.text); err != nil {
				return nil, fmt.Errorf("register %s: %w", s.name, err)
			}
		}
		h := srv.Handler()
		inst := &instance{eng: eng, srv: srv}
		for _, p := range plan {
			inst.ops = append(inst.ops, op{class: p.class, name: p.name, want: p.want,
				do: serve(h, http.MethodPost, p.target, p.body, http.StatusOK)})
		}
		return inst, nil
	}
	return in, nil
}

// --- reload_mix ---

var reloadIDs = []string{"q1", "q3", "q4", "q5"}

const reloadVariants = 8

func genReloadMix(seed int64, scale float64) (*inputs, error) {
	size := scaled(1000, scale, 20)
	stmts := paperStmts(reloadIDs)
	if err := checkSmall(seed, stmts); err != nil {
		return nil, err
	}
	docs := corpus(seed, size, 0)
	base := serialize(docs)
	// The variants of bib.xml the uploads rotate through, and per variant the
	// hash each query must answer with while that variant is the loaded one.
	variants := make([]string, reloadVariants)
	wants := make([][][sha256.Size]byte, reloadVariants)
	for v := range variants {
		cfg := xmlgen.DefaultConfig(size)
		cfg.Seed = seed*reloadVariants + int64(v) + 1000003
		bib := xmlgen.Bib(cfg)
		variants[v] = dom.XMLString(bib.Root)
		fresh := engineOf(append([]*dom.Document{bib}, docs[1:]...))
		for _, s := range stmts {
			b, err := expect(fresh, s)
			if err != nil {
				return nil, fmt.Errorf("variant %d: %w", v, err)
			}
			wants[v] = append(wants[v], sha256.Sum256(b))
		}
	}
	loaded := sha256.Sum256([]byte("loaded bib.xml\n"))
	in := &inputs{classes: []string{"upload", "query_miss", "query_hit"}, passes: 1, stmts: stmts,
		misses: int64(reloadVariants * len(stmts)), hits: int64(reloadVariants * 2 * len(stmts)),
		mainURI: "bib.xml", mainXML: variants[0]}
	in.setup = func() (*instance, error) {
		eng := nalquery.NewEngine()
		if err := loadTexts(eng, base); err != nil {
			return nil, err
		}
		srv := newServer(eng)
		h := srv.Handler()
		inst := &instance{eng: eng, srv: srv}
		// One cycle per variant: the upload moves the generation, so the
		// first run of each query recompiles and the next two hit the cache.
		for v, xml := range variants {
			inst.ops = append(inst.ops, op{class: 0, name: fmt.Sprintf("upload/%d", v), want: loaded,
				do: serve(h, http.MethodPost, "/documents/bib.xml", xml, http.StatusCreated)})
			for rep := 0; rep < 3; rep++ {
				for i, s := range stmts {
					inst.ops = append(inst.ops, op{class: min(rep, 1) + 1, name: fmt.Sprintf("%s/variant%d/run%d", s.name, v, rep),
						want: wants[v][i], do: serve(h, http.MethodPost, "/query", s.text, http.StatusOK)})
				}
			}
		}
		return inst, nil
	}
	return in, nil
}

// scratchDir makes a private directory under the output directory; the
// returned function removes it.
func scratchDir(out string) (string, func(), error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(out, "tmp-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
