// Package simdiff is the differential equivalence harness that locks the
// fuzzer's interned fast path to a reference semantics.
//
// The interning layer rebuilt the fuzzer's hot loop — pooled runners,
// append-rendered state keys, midstate-cached coverage hashes — under an
// equivalence obligation: none of it may change a single observable. This
// package is where that obligation is enforced. The fuzzer keeps its
// string-keyed executor alive behind fuzz.Config.StringCore, and the
// harness replays identical schedules through both cores, asserting
// identical event streams, coverage points and verdicts. (The prover's
// packed visited set has its reference inside internal/verify:
// TestReferenceEquivalence runs every obligation over a store that dedups
// on canonical bytes.)
//
// The CI step running this package's tests is the license for every future
// optimisation of the interned core: a fast path that drifts from the
// reference fails here, not in a campaign long after.
package simdiff

import (
	"fmt"

	"repro/internal/fuzz"
	"repro/internal/ioa"
	"repro/internal/protocol"
)

// CompareExec executes in through the string reference executor
// (fuzz.Execute) and through core (the interned engine), with logging on,
// and returns a description of the first divergence, or nil when the two
// phenotypes are identical. Passing the same core across many inputs is
// deliberate — it exercises the pooled-runner Reset path, which is exactly
// where stale state would hide.
func CompareExec(proto protocol.Protocol, core *fuzz.Core, in *fuzz.Input) error {
	want := fuzz.Execute(proto, in, true)
	got := core.Execute(in, true)

	if err := diffViolation("verdict", want.Verdict, got.Verdict); err != nil {
		return err
	}
	if err := diffViolation("dl3", want.DL3, got.DL3); err != nil {
		return err
	}
	if len(want.Points) != len(got.Points) {
		return fmt.Errorf("coverage points: %d (string) vs %d (interned)", len(want.Points), len(got.Points))
	}
	for i := range want.Points {
		if want.Points[i] != got.Points[i] {
			return fmt.Errorf("coverage point %d: %016x (string) vs %016x (interned)", i, want.Points[i], got.Points[i])
		}
	}
	if want.DataUsed != got.DataUsed || want.AckUsed != got.AckUsed {
		return fmt.Errorf("decisions used: data %d/%d, ack %d/%d (string/interned)",
			want.DataUsed, got.DataUsed, want.AckUsed, got.AckUsed)
	}
	if want.StaleHits != got.StaleHits {
		return fmt.Errorf("stale hits: %d (string) vs %d (interned)", want.StaleHits, got.StaleHits)
	}
	if want.Corruption.Key() != got.Corruption.Key() {
		return fmt.Errorf("resolved corruption: %q (string) vs %q (interned)", want.Corruption.Key(), got.Corruption.Key())
	}
	if want.Amnesty != got.Amnesty || want.Charges != got.Charges {
		return fmt.Errorf("amnesty/charges: %d/%d (string) vs %d/%d (interned)",
			want.Amnesty, want.Charges, got.Amnesty, got.Charges)
	}
	if len(want.Log.Events) != len(got.Log.Events) {
		return fmt.Errorf("event stream: %d events (string) vs %d (interned)",
			len(want.Log.Events), len(got.Log.Events))
	}
	for i := range want.Log.Events {
		if want.Log.Events[i] != got.Log.Events[i] {
			return fmt.Errorf("event %d: %s (string) vs %s (interned)",
				i, want.Log.Events[i], got.Log.Events[i])
		}
	}
	return nil
}

func diffViolation(what string, want, got *ioa.Violation) error {
	switch {
	case want == nil && got == nil:
		return nil
	case want == nil || got == nil:
		return fmt.Errorf("%s: %v (string) vs %v (interned)", what, want, got)
	case *want != *got:
		return fmt.Errorf("%s: %+v (string) vs %+v (interned)", what, *want, *got)
	}
	return nil
}
