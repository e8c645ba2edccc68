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
