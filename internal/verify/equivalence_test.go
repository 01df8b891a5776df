package verify

import (
	"bytes"
	"testing"

	"repro/internal/protocol"
	"repro/internal/transport"
)

// proverCase is one prover run: a protocol at a configuration.
type proverCase struct {
	name string
	p    protocol.Protocol
	cfg  Config
}

// specimenCases returns a run at cfg for every specimen: the full registry,
// the deliberately broken livelock protocol and two transport protocols
// (whose endpoints render the mod-S control-key quotient); then stabdl2 and
// stabnaive from their corrupted starts, whose keys carry the amnesty
// bookkeeping.
func specimenCases(cfg Config) []proverCase {
	var ps []protocol.Protocol
	for _, name := range protocol.Names() {
		ps = append(ps, protocol.Registry()[name])
	}
	var cs []proverCase
	for _, p := range append(ps, protocol.NewLivelock(), transport.New(4, 2), transport.NewGoBackN(4, 2)) {
		cs = append(cs, proverCase{p.Name(), p, cfg})
	}
	stab := cfg
	stab.Stabilize = true
	for _, name := range []string{"stabdl2", "stabnaive"} {
		cs = append(cs, proverCase{name + "-stabilize", protocol.Registry()[name], stab})
	}
	return cs
}

// equivalenceCases are the runs TestReferenceEquivalence makes twice: the
// specimens, and seqnum at the default config, which it exhausts in 248
// states, so race builds also compare one run at the default bounds.
// equivalence_cli_test.go adds the runs at command-line scale, which race
// builds leave out.
var equivalenceCases = append(specimenCases(Config{MaxStates: 4000}),
	proverCase{"seqnum-default", protocol.NewSeqNum(), Config{}})

// TestReferenceEquivalence runs each case through Run, over the packed
// store, and through run over refStore, which dedups on the canonical bytes
// rendered from every configuration. The reports must be byte-identical as
// text and as JSON, and so must the encoded witnesses. A touch set that
// misses a component, a packed key that merges distinct configurations or a
// probe that loses an id changes a state count, an edge count or the space
// hash.
func TestReferenceEquivalence(t *testing.T) {
	for _, c := range equivalenceCases {
		t.Run(c.name, func(t *testing.T) {
			want, err := run(c.p, c.cfg, newRefStore)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(c.p, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if w, g := want.String(), got.String(); w != g {
				t.Fatalf("report:\n%s\nreference:\n%s", g, w)
			}
			if w, g := reportJSON(t, want), reportJSON(t, got); !bytes.Equal(w, g) {
				t.Fatalf("JSON report:\n%s\nreference:\n%s", g, w)
			}
			if w, g := witnessBytes(t, want), witnessBytes(t, got); !bytes.Equal(w, g) {
				t.Fatalf("witness: %d encoded bytes, reference %d, and they differ", len(g), len(w))
			}
		})
	}
}

func reportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// witnessBytes returns the report's witness as encoded NFT, or nil.
func witnessBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	if rep.Witness == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := rep.Witness.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
