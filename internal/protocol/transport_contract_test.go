package protocol_test

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/transport"
)

// TestContractResetIsNewTransport holds the sliding-window and go-back-N
// pairs, which implement the endpoint interfaces outside this package, to
// the Reset contract TestContractResetIsNew checks (CheckResetIsNew): the
// registry's bounded and unbounded sizings of both.
func TestContractResetIsNewTransport(t *testing.T) {
	reg := transport.Registry()
	for _, name := range transport.Names() {
		protocol.CheckResetIsNew(t, reg[name])
	}
}

// TestContractBusyTransmitsTransport holds the registry's sliding-window
// and go-back-N pairs to the contract TestContractBusyTransmits checks
// (CheckBusyTransmits).
func TestContractBusyTransmitsTransport(t *testing.T) {
	reg := transport.Registry()
	for _, name := range transport.Names() {
		protocol.CheckBusyTransmits(t, reg[name])
	}
}
