//go:build !amd64

package p

func kernelGo(x []float64) {}
