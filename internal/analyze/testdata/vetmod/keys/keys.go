// Package keys is the downstream half of the cross-package facts fixture:
// its AppendStateKey calls helper.Render, which is impure — but only the
// helper package's unit can see why. Without facts this package analyzes
// clean; with the channel, statekey reports the call below.
package keys

import "vetmod/helper"

// Node is a stand-in endpoint with a canonical state encoding.
type Node struct {
	vals []int
}

// AppendStateKey delegates its encoding to the impure imported helper. The
// diagnostic here fires only when the helper's purity fact is in scope.
func (n Node) AppendStateKey(dst []byte) []byte {
	return append(dst, helper.Render(n.vals)...)
}

// AppendControlKey stays on the pure helper; no diagnostic.
func (n Node) AppendControlKey(dst []byte) []byte {
	if helper.Width(n.vals) == 0 {
		return append(dst, "empty"...)
	}
	return append(dst, "loaded"...)
}
