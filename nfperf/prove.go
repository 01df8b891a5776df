package main

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/transport"
	"repro/internal/verify"
)

// obligation is one prover run of the prove workload and its known answer.
type obligation struct {
	name  string
	proto string
	span  string // the layer span the run is charged to
	cfg   verify.Config
	want  string // verdict, check, states, edges and space hash
}

// registryAnswers pins `nfvet verify -all` at the default bounds.
var registryAnswers = map[string]string{
	"altbit":               "VIOLATED CERTIFIED 37 73 d6122be01f8a4ffa",
	"cheat1":               "VIOLATED CERTIFIED 41 99 df3aa3575aeb0a72",
	"cntexp":               "BUDGET CONSISTENT 262145 1008608 a02458151e25323a",
	"cntk4":                "PROVED CERTIFIED 233 1131 b2b0bcd82b6a317d",
	"cntlinear":            "PROVED CERTIFIED 786 3510 e883578aa8b31f35",
	"seqnum":               "PROVED CERTIFIED 248 1007 028b20653be6e3f9",
	"stabdl2":              "PROVED CONSISTENT 765 3059 f82c0aa5f5911f0a",
	"stabnaive":            "PROVED CONSISTENT 230 935 72473e0eb6a5f17e",
	"gbn-s4-w2":            "PROVED OBSERVED 230 935 4d53d0be57485057",
	"gbn-s8-w4":            "PROVED OBSERVED 230 935 e9bc88a667810d17",
	"swindow-s4-w2":        "PROVED OBSERVED 298 1183 5157f2c00dcce532",
	"swindow-unbounded-w2": "PROVED OBSERVED 248 1007 c98ccabcd1d63728",
	"livelock":             "VIOLATED CERTIFIED 4 7 6fadf52df95c7d3d",
	"cntnobind":            "VIOLATED CERTIFIED 188 531 996250559a5369c3",
}

// obligations are the registry as `nfvet verify -all` runs it, then two
// larger exhausted spaces: stabdl2's convergence from every corrupted start
// and seqnum at raised bounds.
func obligations() []obligation {
	names := append(protocol.Names(), transport.Names()...)
	names = append(names, "livelock", "cntnobind")
	var obs []obligation
	for _, n := range names {
		obs = append(obs, obligation{name: n, proto: n, span: "verify.registry", want: registryAnswers[n]})
	}
	return append(obs,
		obligation{
			name: "stabdl2-stab-occ2-msg5", proto: "stabdl2", span: "verify.stabdl2-stab",
			cfg:  verify.Config{Stabilize: true, Occupancy: 2, MaxMessages: 5},
			want: "PROVED CERTIFIED 121101 546795 a2b48c9361470d34",
		},
		obligation{
			name: "seqnum-occ4-msg5", proto: "seqnum", span: "verify.seqnum-occ4",
			cfg:  verify.Config{Occupancy: 4, MaxMessages: 5},
			want: "PROVED CERTIFIED 38086 260844 1cc939e29ec939de",
		},
	)
}

func answer(r *verify.Report) string {
	return fmt.Sprintf("%s %s %d %d %s", r.Verdict, r.Check, r.States, r.Edges, r.SpaceHash)
}

// proveTrial runs every obligation through verify.Run. It ignores the seed:
// exhaustive exploration has no random input, and shuffling the run order
// per seed only moved the peak heap (147 or 180 MiB, by which runs' garbage
// was live together). Traced, each run gets a span; the witness replays
// after the timed region are the check path.
func proveTrial(t *trial) error {
	obs := obligations()
	ps := make([]protocol.Protocol, len(obs))
	for i, o := range obs {
		p, err := replay.LookupProtocol(o.proto)
		if err != nil {
			return err
		}
		ps[i] = p
	}

	reps := make([]*verify.Report, len(obs))
	t.start()
	tr := t.tracer()
	tr.begin("bench")
	for i, o := range obs {
		tr.begin(o.span)
		rep, err := verify.Run(ps[i], o.cfg)
		tr.end()
		if err != nil {
			return fmt.Errorf("%s: %w", o.name, err)
		}
		reps[i] = rep
		t.lap()
	}
	tr.end()
	t.stop()

	t.out.Ops = len(obs)
	answers := make([]string, len(obs))
	states := map[string]int{}
	edges := map[string]int{}
	total, dl3 := 0, 0
	for i, o := range obs {
		rep := reps[i]
		answers[i] = o.name + " " + answer(rep)
		states[o.span] += rep.States
		edges[o.span] += rep.Edges
		total += rep.States
		dl3 += rep.DL3Attempted
		ok := true
		if got := answer(rep); got != o.want {
			t.fail("%s: %s, want %s", o.name, got, o.want)
			ok = false
		}
		if rep.Check == verify.CheckFail {
			t.fail("%s: check FAIL: %v", o.name, rep.Failures)
			ok = false
		}
		if rep.Witness != nil {
			tr.begin("replay.confirm")
			err := confirm(rep.Witness)
			tr.end()
			if err != nil {
				t.fail("%s witness: %v", o.name, err)
				ok = false
			}
		}
		if !ok {
			t.out.Failed++
		}
	}
	sort.Strings(answers)
	h := fnv.New64a()
	for _, a := range answers {
		fmt.Fprintln(h, a)
	}
	t.out.Fingerprint = fmt.Sprintf("runs=%d states=%d answers=%016x", len(obs), total, h.Sum64())

	if t.traced {
		l := map[string]float64{}
		for _, span := range []string{"verify.registry", "verify.stabdl2-stab", "verify.seqnum-occ4"} {
			l[span+".states"] = float64(states[span])
			l[span+".edges_per_config"] = ratio(edges[span], states[span])
		}
		l["verify.dl3_attempted"] = float64(dl3)
		l["verify.alloc_bytes_per_config"] = float64(t.out.AllocBytes) / float64(total)
		t.out.Layers = l
	}
	return nil
}
