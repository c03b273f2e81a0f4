// Package engine seeds the budgetcharge cases: a compliant charge map,
// a duplicate Trip* label, an ad-hoc string literal, a non-forwarded
// variable, and a constant outside the Trip* naming scheme.
package engine

// Trip-point labels. TripZdup duplicates TripBuild's value; scope names
// iterate sorted, so the duplicate is reported at the later name.
const (
	TripBuild = "build"
	TripSort  = "sort"
	TripZdup  = "build" // want "duplicates TripBuild"
)

const adHoc = "adhoc"

// Ctx is the miniature charge plumbing.
type Ctx struct{}

func (c *Ctx) charge(point string, n int) { _, _ = point, n }

// ChargeRow forwards its label parameter into charge — sanctioned.
func (c *Ctx) ChargeRow(point string) { c.charge(point, 1) }

// Fault is a leaf charge site.
func (c *Ctx) Fault(point string) { _ = point }

func drainRows(c *Ctx, point string, rows []int) []int {
	c.charge(point, len(rows))
	return rows
}

func good(c *Ctx) {
	c.ChargeRow(TripBuild)
	drainRows(c, TripSort, nil)
}

func badLiteral(c *Ctx) {
	c.charge("adhoc", 1) // want "got a non-identifier expression"
}

func badVar(c *Ctx, label string) {
	c.Fault(label) // want "not a forwarded label parameter"
}

func badConst(c *Ctx) {
	c.charge(adHoc, 1) // want "does not follow the Trip"
}

func use(c *Ctx) {
	good(c)
	badLiteral(c)
	badVar(c, TripSort)
	badConst(c)
}
