// Command app is the fixture's product.
package main

import "fixture/internal/lib"

type greeter interface{ Greet() string }

func main() {
	var g greeter = lib.Greeter{}
	println(g.Greet(), lib.Used())
}
