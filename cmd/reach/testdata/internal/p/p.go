package p

type T struct{}

func (t *T) Ptr() {}

func (t T) Val() {}

func (t *T) Bound() {}

func (t *T) DeadMethod() {}

type Box[E any] struct{ v E }

func (b *Box[E]) Get() E { return b.v }

type Pair[K comparable, V any] struct{}

func (p Pair[K, V]) Key() {}

func Map[E, F any](x []E, f func(E) F) []F {
	out := make([]F, len(x))
	for i, v := range x {
		out[i] = f(v)
	}
	return out
}

func Outer() func() int {
	return func() int { return 1 }
}

func Dead() {
	println("unreached")
}

func Allowed() {}

func init() {}

func _() {}

// kernel is implemented in assembly.
func kernel(x []float64)
