// Command app is the fixture's product.
package main

import "fixture/internal/lib"

type greeter interface{ Greet() string }

func main() {
	var g greeter = lib.Greeter{}
	println(g.Greet(), lib.Used())

	k := lib.Knobs{Keyed: 1}
	k.Assigned = 2
	k.Counted++
	p := &k.Addressed
	*p = 3
	k.Called.Add()
	k.Fill()
	println(k.Unset.Value(), k.BenchSet, k.Excused, k.Decoded, lib.Pair{1, 2}.A)
}
