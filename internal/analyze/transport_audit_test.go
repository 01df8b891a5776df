package analyze

// Audit coverage for the transport protocols (internal/transport): the
// sliding-window and go-back-n endpoints carry mod-S ControlKey quotients
// and their descriptors declare Bounds, so the static auditor can certify
// their k_t·k_r exactly as it does the paper protocols. These tests live
// here rather than in internal/transport because they exercise the auditor
// (analyze → transport is the only import direction that does not cycle).

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/protocol"
	"repro/internal/transport"
)

// understated declares b in place of the Bounds the embedded transport
// protocol derives: the what-if fixture for declarations the audit must
// FAIL.
type understated struct {
	protocol.Protocol
	b protocol.Bounds
}

func (u understated) Bounds() protocol.Bounds { return u.b }

// TestTransportAuditGolden pins the complete audit reports for the
// transport endpoints, plus a FAIL fixture that declares understated Bounds
// ceilings. Regenerate with
// `go test -run TestTransportAuditGolden -update ./internal/analyze`.
func TestTransportAuditGolden(t *testing.T) {
	cases := []struct {
		name string
		p    protocol.Protocol
	}{
		{"swindow-s4-w2", transport.New(4, 2)},
		{"gbn-s4-w2", transport.NewGoBackN(4, 2)},
		// The understated fixture claims k_t<=2 and a 4-letter header
		// alphabet for a protocol that provably reaches k_t=8 over 8
		// headers. The audit must FAIL it on both ceilings.
		{"swindow-s4-w2-understated", understated{transport.New(4, 2),
			protocol.Bounds{StateBounded: true, KT: 2, Headers: 4}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Audit(tc.p, goldenConfig).String()
			path := filepath.Join("testdata", "audit", tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("audit report drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

// TestTransportRegistryVerdicts audits every registered transport protocol:
// the finite-sequence-space forms must certify, the unbounded form must be
// consistent with its declaration, and nothing may FAIL.
func TestTransportRegistryVerdicts(t *testing.T) {
	want := map[string]Verdict{
		"swindow-s4-w2":        VerdictCertified,
		"gbn-s4-w2":            VerdictCertified,
		"gbn-s8-w4":            VerdictCertified,
		"swindow-unbounded-w2": VerdictConsistent,
	}
	reg := transport.Registry()
	if len(reg) != len(want) {
		t.Fatalf("transport registry has %d protocols, verdict table covers %d — update this test", len(reg), len(want))
	}
	for _, name := range transport.Names() {
		rep := Audit(reg[name], goldenConfig)
		if rep.Verdict != want[name] {
			t.Errorf("%s: verdict %s (failures %v), want %s", name, rep.Verdict, rep.Failures, want[name])
		}
		if rep.Exhausted && rep.PumpingBound != rep.KT*rep.KR {
			t.Errorf("%s: PumpingBound %d != k_t*k_r = %d*%d", name, rep.PumpingBound, rep.KT, rep.KR)
		}
	}
}

// TestTransportUnderstatedBoundsFail spells out the FAIL path the golden
// fixture pins: understated ceilings are contradictions, not warnings.
func TestTransportUnderstatedBoundsFail(t *testing.T) {
	p := understated{transport.New(4, 2), protocol.Bounds{StateBounded: true, KT: 2, KR: 3, Headers: 4}}
	rep := Audit(p, goldenConfig)
	auditFailures(t, rep,
		"observed k_t=8 exceeds declared ceiling 2",
		"observed k_r=8 exceeds declared ceiling 3",
		"distinct headers exceeds declared ceiling 4")
}

// TestTransportStateKeyLintClean runs the determinism analyzers over the
// transport package alone: the endpoints' ControlKey quotients and
// StateKeys must be pure — no fmt verbs over arbitrary values, no map
// ranges, no clock or randomness reads. The whole-module selfcheck covers
// this too, but only outside -short; the quotients are load-bearing enough
// for a dedicated fast check.
func TestTransportStateKeyLintClean(t *testing.T) {
	pkgs, err := LoadPackages(moduleRoot(t), "./internal/transport")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("LoadPackages returned no packages")
	}
	for _, p := range pkgs {
		for _, d := range RunUnit(Analyzers(), p.Fset, p.Files, p.Pkg, p.Info, nil).Diags {
			t.Errorf("lint finding: %s", d)
		}
	}
}
