// Command app is the fixture program's only entry point.
package main

import "fixture/lib"

func main() {
	lib.Print(lib.Name("x"))
	lib.Print(lib.Map([]int{1, 2}, func(i int) string { return "" }))
	lib.Print(lib.Box[int]{}.Get())
	var c lib.Counter
	inc := c.Inc
	inc()
	var s lib.Shape = lib.Square{Side: 2}
	lib.Print(s.Area())
	lib.Reached()
}
