package stabilize_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fuzz"
	"repro/internal/netlink"
	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/stabilize"
	"repro/internal/trace"
	"repro/internal/verify"
)

// cert is one certificate under test and what produced it.
type cert struct {
	name string
	log  *trace.Log
}

// fuzzCert runs a serial campaign on p and returns the certificate of its
// violation of prop, found among corrupted starts when corrupt is set.
func fuzzCert(t *testing.T, p protocol.Protocol, prop string, corrupt bool, budget int64) *trace.Log {
	t.Helper()
	res, err := fuzz.Run(fuzz.Config{Protocol: p, Workers: 1, Budget: budget, Seed: 1, Corrupt: corrupt, StopOnViolation: true})
	if err != nil {
		t.Fatalf("fuzz %s: %v", p.Name(), err)
	}
	for _, v := range res.Violations {
		if v.Property == prop && (v.Corruption != "") == corrupt {
			return v.Cert
		}
	}
	t.Fatalf("fuzz %s: no %s certificate in %d execs (violations %v, errors %v)", p.Name(), prop, res.Execs, res.Violations, res.Errors)
	return nil
}

// verifyCert returns the prover's confirmed witness for p.
func verifyCert(t *testing.T, p protocol.Protocol, cfg verify.Config, prop string) *trace.Log {
	t.Helper()
	rep, err := verify.Run(p, cfg)
	if err != nil {
		t.Fatalf("verify %s: %v", p.Name(), err)
	}
	if !rep.WitnessConfirmed || rep.Property != prop {
		t.Fatalf("verify %s: witness confirmed %v for %q, want a confirmed %s witness (failures %v)",
			p.Name(), rep.WitnessConfirmed, rep.Property, prop, rep.Failures)
	}
	return rep.Witness
}

// convergenceCert returns the witness of the first corrupted start of p,
// with one poison packet per channel at most, whose confirmed divergence
// report satisfies pick.
func convergenceCert(t *testing.T, p protocol.Protocol, cfg stabilize.Config, pick func(*stabilize.Report) bool) *trace.Log {
	t.Helper()
	for _, seed := range stabilize.Enumerate(p, 1) {
		rep, err := stabilize.CheckConvergence(p, seed, cfg)
		if err != nil {
			t.Fatalf("%s seed %s: %v", p.Name(), seed, err)
		}
		if !rep.Converged && rep.ReplayConfirmed && pick(rep) {
			return rep.Witness
		}
	}
	t.Fatalf("%s: no such confirmed divergence", p.Name())
	return nil
}

// producers returns one certificate from every engine that writes them:
// the fuzzer (a clean-start safety violation, a pumped livelock and a
// corrupted start), the prover (the same three), the convergence checker
// (a fault divergence, a pumped stall, and a run that goes idle with more
// messages stranded than its amnesty, the one claim only the quiescent
// judge makes) and a soak session log.
func producers(t *testing.T) []cert {
	t.Helper()
	stabnaive, altbit := protocol.NewStabNaive(), protocol.NewAltBit()
	certs := []cert{
		{"fuzz altbit", fuzzCert(t, altbit, "DL1", false, 30000)},
		{"fuzz livelock", fuzzCert(t, protocol.NewLivelock(), "DL3", false, 2000)},
		{"fuzz stabnaive -corrupt", fuzzCert(t, stabnaive, "DL1", true, 30000)},
		{"verify altbit", verifyCert(t, altbit, verify.Config{}, "DL1")},
		{"verify livelock", verifyCert(t, protocol.NewLivelock(), verify.Config{}, "DL3")},
		{"verify -stabilize stabnaive", verifyCert(t, stabnaive, verify.Config{Stabilize: true}, "DL1")},
		{"stabilize divergence", convergenceCert(t, stabnaive, stabilize.Config{}, func(r *stabilize.Report) bool { return r.Cert == nil })},
		{"stabilize stall", convergenceCert(t, stabnaive, stabilize.Config{}, func(r *stabilize.Report) bool { return r.Cert != nil })},
		{"stabilize stranding", convergenceCert(t, altbit, stabilize.Config{Probes: 2}, func(r *stabilize.Report) bool {
			return r.Cert == nil && r.Violation.Property == "DL3"
		})},
	}
	sv, err := netlink.NewServer("")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer sv.Close()
	res, err := sv.RunSession(netlink.SessionConfig{
		Protocol: altbit,
		Messages: 8,
		Chaos:    netlink.ChaosConfig{DropProb: 0.1, HoldProb: 0.25, DupProb: 0.15},
		Seed:     3,
	})
	if err != nil {
		t.Fatalf("RunSession: %v", err)
	}
	return append(certs, cert{"soak session", res.Log})
}

// dropFirstSubmit removes the op group of l's first submit: the operation
// and the observations and decisions up to the next operation.
func dropFirstSubmit(l *trace.Log) *trace.Log {
	c := l.Clone()
	for i, e := range c.Events {
		if e.Kind != trace.KindSubmit {
			continue
		}
		j := i + 1
		for j < len(c.Events) && !c.Events[j].Kind.IsOp() && c.Events[j].Kind != trace.KindVerdict {
			j++
		}
		c.Events = append(c.Events[:i], c.Events[j:]...)
		break
	}
	return c
}

// otherVerdict rewrites the property of l's verdict event.
func otherVerdict(l *trace.Log) *trace.Log {
	c := l.Clone()
	for i := len(c.Events) - 1; i >= 0; i-- {
		if e := &c.Events[i]; e.Kind == trace.KindVerdict {
			e.Property = otherProperty(e.Property)
			break
		}
	}
	return c
}

func otherProperty(p string) string {
	if p == "DL1" {
		return "DL2"
	}
	return "DL1"
}

func withMeta(l *trace.Log, key, value string) *trace.Log {
	c := l.Clone()
	c.SetMeta(key, value)
	return c
}

// refuse requires Confirm to refuse l for the reason want names.
func refuse(t *testing.T, name, edit string, l *trace.Log, want string) {
	t.Helper()
	_, err := stabilize.Confirm(l)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("%s with %s: Confirm returned %v, want a refusal naming %q", name, edit, err, want)
	}
}

// TestConfirm holds the one check to every certificate: one from each
// producer passes it, as does every witness CheckConvergence writes from
// starts with up to two poison packets (fault divergences and pumped stalls
// alike). Each certificate with one op group dropped is refused as a
// divergence, and one with a verdict event, with its property changed, as
// a verdict mismatch; a corrupted-start certificate whose amnesty or claim is
// rewritten is refused by the amnesty re-judgement, each edit for its own
// reason.
func TestConfirm(t *testing.T) {
	certs := producers(t)
	for _, p := range []protocol.Protocol{protocol.NewStabNaive(), protocol.NewAltBit(), protocol.NewArrival()} {
		for _, seed := range stabilize.Enumerate(p, 2) {
			rep, err := stabilize.CheckConvergence(p, seed, stabilize.Config{})
			if err != nil {
				t.Fatalf("%s seed %s: %v", p.Name(), seed, err)
			}
			if !rep.Converged {
				certs = append(certs, cert{p.Name() + " seed " + seed.String(), rep.Witness})
			}
		}
	}
	forged := 0
	for _, c := range certs {
		rr, err := stabilize.Confirm(c.log)
		if err != nil {
			t.Errorf("%s: Confirm: %v", c.name, err)
			continue
		}
		if rr == nil || rr.Log == nil {
			t.Fatalf("%s: Confirm returned no replay", c.name)
		}
		refuse(t, c.name, "its first submit dropped", dropFirstSubmit(c.log), "replay diverged from recording")
		if _, ok := c.log.Verdict(); ok {
			refuse(t, c.name, "its verdict property changed", otherVerdict(c.log), "does not match recorded verdict")
		}
		claim, ok := strings.CutPrefix(c.log.Meta[stabilize.MetaStabilize], "diverged ")
		if _, hasAmnesty := c.log.Meta[stabilize.MetaAmnesty]; !hasAmnesty || !ok || c.log.Meta[replay.MetaLivelockPump] != "" {
			continue
		}
		other := "diverged " + otherProperty(claim)
		refuse(t, c.name, "amnesty 99", withMeta(c.log, stabilize.MetaAmnesty, "99"), "over amnesty 99, the replay judges <nil>")
		refuse(t, c.name, "amnesty x", withMeta(c.log, stabilize.MetaAmnesty, "x"), `certificate amnesty "x"`)
		refuse(t, c.name, "claim "+other, withMeta(c.log, stabilize.MetaStabilize, other), `claims "`+other+`" over amnesty`)
		refuse(t, c.name, "claim converged", withMeta(c.log, stabilize.MetaStabilize, "converged"), `claims "converged", not a divergence`)
		forged++
	}
	if forged == 0 {
		t.Fatal("no corrupted-start certificate to forge")
	}
	t.Logf("%d certificates confirmed, %d corrupted-start claims forged", len(certs), forged)
}

// TestWitnessWantsItsProperty: Witness seals a corrupted-start schedule only
// as a violation of the property the caller found, and what it returns
// passes Confirm. A schedule whose replay judges another property, or
// nothing over a larger amnesty, is refused. The schedules are every fault
// divergence and quiescent stranding CheckConvergence finds for three
// protocols at three and two probes, each of which it must have confirmed.
func TestWitnessWantsItsProperty(t *testing.T) {
	sealed := 0
	for _, p := range []protocol.Protocol{protocol.NewStabNaive(), protocol.NewAltBit(), protocol.NewArrival()} {
		for _, cfg := range []stabilize.Config{{}, {Probes: 2}} {
			for _, seed := range stabilize.Enumerate(p, 1) {
				rep, err := stabilize.CheckConvergence(p, seed, cfg)
				if err != nil {
					t.Fatalf("%s seed %s: %v", p.Name(), seed, err)
				}
				if rep.Converged || rep.Cert != nil || rep.CertErr != "" {
					continue // a stall, which CertifyLivelock seals
				}
				name, prop := fmt.Sprintf("%s seed %s probes %d", p.Name(), seed, rep.Probes), rep.Violation.Property
				if !rep.ReplayConfirmed {
					t.Errorf("%s: %s divergence not replay-confirmed", name, prop)
				}
				w, err := stabilize.Witness(rep.Witness, "test", seed, rep.Amnesty, prop)
				if err != nil {
					t.Fatalf("%s: Witness for %s: %v", name, prop, err)
				}
				if got := w.Meta[stabilize.MetaStabilize]; got != "diverged "+prop {
					t.Errorf("%s: sealed claim %q, want %q", name, got, "diverged "+prop)
				}
				if _, err := stabilize.Confirm(w); err != nil {
					t.Errorf("%s: sealed witness fails Confirm: %v", name, err)
				}
				if _, err := stabilize.Witness(rep.Witness, "test", seed, rep.Amnesty, otherProperty(prop)); err == nil {
					t.Errorf("%s: Witness sealed a %s divergence as %s", name, prop, otherProperty(prop))
				}
				if _, err := stabilize.Witness(rep.Witness, "test", seed, 99, prop); err == nil {
					t.Errorf("%s: Witness sealed a run within amnesty 99", name)
				}
				sealed++
			}
		}
	}
	if sealed == 0 {
		t.Fatal("no divergence to seal")
	}
}
