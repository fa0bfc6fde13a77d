// Package rowexpfix is the rowexp analyzer's fixture: math.Exp, math.Sin,
// math.Cos and math.Sincos inside and outside //mlmd:hotpath functions, by
// call, by value, through a renamed import and a closure, and the near misses
// the rule leaves alone.
package rowexpfix

import (
	"math"
	m "math"
)

// BadCall calls math.Exp per element on a hot path.
//
//mlmd:hotpath
func BadCall(dst, src []float64) {
	for i, x := range src {
		dst[i] = math.Exp(x) // want "math.Exp on the hot path"
	}
}

// BadValue takes math.Exp as a function value.
//
//mlmd:hotpath
func BadValue() func(float64) float64 {
	return math.Exp // want "math.Exp on the hot path"
}

// BadRenamed reaches math.Exp through a renamed import, inside a closure.
//
//mlmd:hotpath
func BadRenamed(x float64) float64 {
	f := func(v float64) float64 { return m.Exp(-v) } // want "BadRenamed: math.Exp"
	return f(x)
}

// Cold is not on a hot path: math.Exp is fine here.
func Cold(x float64) float64 { return math.Exp(x) }

type expr struct{}

// Exp is a method that merely shares the name.
func (expr) Exp(x float64) float64 { return x }

// BadTrig calls the trigonometric functions SincosRows replaces.
//
//mlmd:hotpath
func BadTrig(x float64) float64 {
	s, c := math.Sincos(x)  // want "math.Sincos on the hot path; take the row through linalg.SincosRows"
	s += math.Sin(x)        // want "math.Sin on the hot path"
	return s + c + m.Cos(x) // want "BadTrig: math.Cos on the hot path"
}

// NearMisses uses the other transcendentals and a same-named method.
//
//mlmd:hotpath
func NearMisses(x float64) float64 {
	return math.Exp2(x) + math.Expm1(x) + math.Tan(x) + math.Asin(x) + expr{}.Exp(x)
}

// Reference is the scalar loop a row kernel is checked against, with the
// mandatory reasoned suppression.
//
//mlmd:hotpath
func Reference(dst, src []float64) {
	for i, x := range src {
		//lint:allow rowexp the reference the vector kernel must equal
		dst[i] = math.Exp(x)
	}
}
