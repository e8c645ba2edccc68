// Package lib is the export audit's fixture: one export of each kind the
// audit must tell apart.
package lib

// Used has a product caller (cmd/app).
func Used() int { return Helper() }

// Helper is used only inside this package.
func Helper() int { return 1 }

// Unused has no caller at all.
func Unused() {}

// BenchOnly is called only from the second module.
func BenchOnly() {}

// Greeter is named by the product; its method is called only through
// the product's greeter interface.
type Greeter struct{}

// Greet implements cmd/app's greeter.
func (Greeter) Greet() string { return "hello" }

// Knobs is the field audit's fixture: one field for each way the product
// writes a field, and one for each finding.
type Knobs struct {
	Keyed     int     // a struct-literal key (cmd/app)
	Assigned  int     // the base of an assignment (cmd/app)
	Counted   int     // ++ (cmd/app)
	Addressed int     // &k.Addressed (cmd/app)
	Called    Counter // a pointer method called on the field (cmd/app)
	Defaulted int     // written only by Fill, inside this package
	BenchSet  int     // written only by the second module
	Unset     Counter // read through a value method, never written
	Excused   int     // never written, but on the allowlist
	Decoded   int     `json:"decoded"` // a json field: the decoder writes it
}

// Pair's fields are written by position (cmd/app).
type Pair struct{ A, B int }

// Counter is a field type with a pointer and a value method.
type Counter struct{ n int }

// Add counts one.
func (c *Counter) Add() { c.n++ }

// Value returns the count.
func (c Counter) Value() int { return c.n }

// Fill sets the field that only this package writes.
func (k *Knobs) Fill() { k.Defaulted = 1 }
