// Package lib holds one of each kind of declaration the dead-code walk in
// deadcode_test.go must tell apart.
package lib

import "fmt"

// Dead is exported, but nothing calls it.
func Dead() { helper() }

// helper is called, but only by Dead.
func helper() {}

// Name is printed by fmt, which calls its String method.
type Name string

func (n Name) String() string { return "name " + string(n) }

// Unused is a method of a live type that nothing calls.
func (n Name) Unused() {}

// Map is generic; it is reached only through an instantiation.
func Map[T, U any](xs []T, f func(T) U) []U {
	out := make([]U, 0, len(xs))
	for _, x := range xs {
		out = append(out, f(x))
	}
	return out
}

// Box is a generic type whose method is reached only on an instance.
type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }

// Counter's Inc is used only as a method value.
type Counter struct{ n int }

func (c *Counter) Inc() { c.n++ }

// Shape is an interface the program names; Square's Area satisfies it.
type Shape interface{ Area() int }

type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

const unusedConst = 1

// Orphan is unreachable, so its String method is too.
type Orphan struct{}

func (Orphan) String() string { return "orphan" }

// BenchOnly is called only by the bench-like consumer.
func BenchOnly() int { return 1 }

// Kept is allowlisted as public API.
func Kept() {}

// Reached is allowlisted, but main calls it anyway.
func Reached() {}

// Print prints through fmt.
func Print(v any) { fmt.Println(v) }
