// Package simdiff is the differential equivalence harness that locks the
// engines' interned fast paths to a reference semantics.
//
// The interning layer rebuilt the hot loops of the fuzzer and the verifier
// — pooled runners, append-rendered state keys, packed visited-set keys,
// midstate-cached coverage hashes — under an equivalence obligation: none
// of it may change a single observable. This package is where that
// obligation is enforced, against one reference per engine:
//
//   - the fuzzer keeps its string-keyed executor alive behind
//     fuzz.Config.StringCore, and the harness replays identical schedules
//     through both cores, asserting identical event streams, coverage
//     points and verdicts;
//   - the verifier's reference is its spill store (verify.Config.SpillDir),
//     a supported path that dedups on the canonical key bytes instead of
//     the packed interned key, and the harness runs each obligation on both
//     stores, asserting identical graphs, verdicts and canonical space
//     hashes.
//
// The CI step running this package's tests is the license for every future
// optimisation of the interned cores: a fast path that drifts from the
// reference fails here, not in a campaign long after.
package simdiff

import (
	"fmt"

	"repro/internal/fuzz"
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/verify"
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

// CompareVerify runs the bounded checker twice — once over the packed
// interned store, the default, and once spilled to dir, whose store dedups
// on the canonical key bytes — and returns the first divergence in the
// proof artifact, or nil. cfg.SpillDir is ignored.
func CompareVerify(proto protocol.Protocol, cfg verify.Config, dir string) error {
	cfg.SpillDir = ""
	want, err := verify.Run(proto, cfg)
	if err != nil {
		return fmt.Errorf("packed run: %w", err)
	}
	cfg.SpillDir = dir
	got, err := verify.Run(proto, cfg)
	if err != nil {
		return fmt.Errorf("spilled run: %w", err)
	}
	if !got.Spilled {
		return fmt.Errorf("spilled run did not report Spilled")
	}
	return DiffReports(want, got)
}

// DiffReports compares the store-independent content of two verification
// reports and returns the first divergence, or nil.
func DiffReports(want, got *verify.Report) error {
	if want.States != got.States || want.Edges != got.Edges {
		return fmt.Errorf("graph: %d states/%d edges vs %d states/%d edges",
			want.States, want.Edges, got.States, got.Edges)
	}
	if want.SpaceHash != got.SpaceHash {
		return fmt.Errorf("space hash: %s vs %s", want.SpaceHash, got.SpaceHash)
	}
	if want.Exhausted != got.Exhausted {
		return fmt.Errorf("exhausted: %v vs %v", want.Exhausted, got.Exhausted)
	}
	if want.Verdict != got.Verdict || want.Property != got.Property {
		return fmt.Errorf("verdict: %s/%s vs %s/%s", want.Verdict, want.Property, got.Verdict, got.Property)
	}
	if want.Detail != got.Detail {
		return fmt.Errorf("detail: %q vs %q", want.Detail, got.Detail)
	}
	if want.Check != got.Check {
		return fmt.Errorf("check: %s vs %s", want.Check, got.Check)
	}
	if want.Seeds != got.Seeds || want.Seed != got.Seed {
		return fmt.Errorf("stabilize seeds: %d/%q vs %d/%q", want.Seeds, want.Seed, got.Seeds, got.Seed)
	}
	if want.DL3Candidates != got.DL3Candidates || want.DL3Attempted != got.DL3Attempted {
		return fmt.Errorf("dl3: %d candidates/%d attempted vs %d/%d",
			want.DL3Candidates, want.DL3Attempted, got.DL3Candidates, got.DL3Attempted)
	}
	if want.WitnessOps != got.WitnessOps {
		return fmt.Errorf("witness ops: %d vs %d", want.WitnessOps, got.WitnessOps)
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
