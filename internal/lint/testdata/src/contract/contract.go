// Package contract exercises the engine-contract family: unique
// string-literal experiment ids and the tags-implies-layout rule for
// Controller compositions.
package contract

type spec struct {
	ID   string
	Name string
}

var registry = map[string]spec{}

func register(s spec) {
	registry[s.ID] = s
}

func init() {
	register(spec{ID: "fig12", Name: "first"})
	register(spec{ID: "fig13", Name: "second"})
	register(spec{ID: "fig12", Name: "dup"})          // want "dupid: duplicate experiment id .fig12."
	register(spec{ID: dynamicID(), Name: "computed"}) // want "dupid: experiment id must be a string literal"
}

func dynamicID() string { return "tab4" }

type TagStore interface{ Lookup(line uint64) bool }

type Layout struct {
	LineBytes int
}

type Controller struct {
	tags TagStore
	lay  Layout
	name string
}

type fakeTags struct{}

func (fakeTags) Lookup(uint64) bool { return false }

// newComplete sets both tags and lay in the literal.
func newComplete() *Controller {
	return &Controller{
		tags: fakeTags{},
		lay:  Layout{LineBytes: 64},
	}
}

func newMissing() *Controller {
	return &Controller{ // want "layout: Controller composition in newMissing installs a tag store but never sets lay"
		tags: fakeTags{},
	}
}

// newPassThrough has no tag store: the sanctioned zero-Layout composition.
func newPassThrough() *Controller {
	return &Controller{name: "nol4"}
}

// newLateBound wires both fields by assignment after the literal.
func newLateBound() *Controller {
	c := &Controller{name: "late"}
	c.tags = fakeTags{}
	c.lay = Layout{LineBytes: 64}
	return c
}

func newLateMissing() *Controller {
	c := &Controller{name: "late"} // want "layout: Controller composition in newLateMissing installs a tag store but never sets lay"
	c.tags = fakeTags{}
	return c
}
