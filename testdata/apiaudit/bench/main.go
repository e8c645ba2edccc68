// Command bench is the fixture's second module, in the benchmark's place.
package main

import "fixture/internal/lib"

func main() { lib.BenchOnly() }
