package replay

import (
	"fmt"
	"testing"

	"repro/internal/channel"
	"repro/internal/ioa"
	"repro/internal/mset"
)

// TestErrorTextsUnchanged holds the errors that format only when read to
// the texts fmt.Errorf rendered eagerly before: refuse's three diagnoses,
// the non-FIFO channel's stale Deliver and Drop, and mset's short Remove.
// CertifyLivelock, nftrace and nffuzz print these texts.
func TestErrorTextsUnchanged(t *testing.T) {
	dl1 := &ioa.Violation{Property: "DL1", Index: 12, Detail: "receive_msg(m2(m0)) has no unmatched preceding send_msg"}
	dl3 := &ioa.Violation{Property: "DL3", Index: -1, Detail: "1 message(s) submitted but never delivered"}
	pkt := ioa.Packet{Header: "d1", Payload: "m0"}
	chErr := func(dir ioa.Dir, drop bool) error {
		c := channel.NewNonFIFO(dir)
		c.Send(ioa.Packet{Header: "d0"})
		if drop {
			return c.Drop(pkt)
		}
		return c.Deliver(pkt)
	}
	ms := mset.New[ioa.Packet](ioa.PacketLess)
	ms.Add(pkt, 1)

	for _, row := range []struct {
		name string
		got  error
		want error
	}{
		{"refuse/safety",
			refuse(&DriveOutcome{Safety: dl1, DL3: dl3, CycleFound: true, Rounds: 3}),
			fmt.Errorf("replay: driven trace violates %s; livelock certification wants a safety-clean liveness failure (use Shrink for safety violations): %v",
				dl1.Property, dl1)},
		{"refuse/recovery",
			refuse(&DriveOutcome{Mode: DriveReliable, Quiescent: true, Rounds: 7, Delivered: 3, Submitted: 3}),
			fmt.Errorf("replay: protocol recovers under the %s closing drive (quiescent=%v after %d rounds, %d/%d delivered); no livelock to certify",
				DriveReliable, true, 7, 3, 3)},
		{"refuse/recovery-adversarial",
			refuse(&DriveOutcome{Mode: DriveAdversarial, Rounds: 512, Delivered: 2, Submitted: 4}),
			fmt.Errorf("replay: protocol recovers under the %s closing drive (quiescent=%v after %d rounds, %d/%d delivered); no livelock to certify",
				DriveAdversarial, false, 512, 2, 4)},
		{"refuse/no-cycle",
			refuse(&DriveOutcome{DL3: dl3, Rounds: 512, Delivered: 1, Submitted: 4}),
			fmt.Errorf("replay: %d message(s) stranded but no joint configuration repeated within %d drive rounds; cannot certify a pumping cycle",
				3, 512)},
		{"channel/deliver", chErr(ioa.TtoR, false),
			fmt.Errorf("channel %s: deliver %s: no copy in transit", ioa.TtoR, pkt)},
		{"channel/drop", chErr(ioa.RtoT, true),
			fmt.Errorf("channel %s: drop %s: no copy in transit", ioa.RtoT, pkt)},
		{"mset/short", ms.Remove(pkt, 2),
			fmt.Errorf("mset: Remove %d copies of %v, only %d present", 2, pkt, 1)},
		{"mset/absent", ms.Remove(ioa.Packet{Header: "a0"}, 1),
			fmt.Errorf("mset: Remove %d copies of %v, only %d present", 1, ioa.Packet{Header: "a0"}, 0)},
	} {
		if row.got == nil {
			t.Fatalf("%s: no error", row.name)
		}
		if row.got.Error() != row.want.Error() {
			t.Errorf("%s:\n got %q\nwant %q", row.name, row.got, row.want)
		}
	}
	if err := refuse(&DriveOutcome{DL3: dl3, CycleFound: true}); err != nil {
		t.Errorf("a stranding cycle is refused: %v", err)
	}
}
