// Package badmod is a deliberately invariant-violating module: the
// cmd/ucclint smoke test asserts the multichecker exits nonzero over it
// with findings from every analyzer.
package badmod

import "badmod/internal/model"

var retained model.Message

// Retain stores a pooled message into a package-level variable.
func Retain() {
	m, _ := model.DecodeMessagePooled(1)
	retained = m
	model.RecycleMessage(m)
}
