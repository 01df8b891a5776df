// Package verify is a bounded model checker for data link protocols over
// non-FIFO channels: it exhaustively explores the joint configurations
// (q_t, q_r, c^{t→r}, c^{r→t}, submitted, delivered) reachable when each
// channel holds at most Occupancy in-transit packets and at most
// MaxMessages messages are submitted, checking DL1 (safe delivery
// correspondence) on the fly and DL3 (no livelock) over the explored graph.
//
// The checker is the proof-side complement of the repo's testing tools: the
// fuzzer (internal/fuzz) and the adversary constructions (internal/adversary)
// *find* violating schedules; `nfvet verify` either finds one by exhaustion
// — emitted as a replay-confirmed NFT counterexample — or PROVES there is
// none within the stated bounds, emitting a machine-readable proof artifact
// (state/edge counts, canonical space hash). Witnesses are never trusted:
// every counterexample is re-driven through sim.Runner and re-judged by
// internal/replay before it is reported (see witness.go), so the verifier's
// transition semantics are continuously cross-checked against the
// production simulator.
//
// Two reductions keep the space small (DESIGN.md §12 has the full soundness
// arguments):
//
//   - exact dedup of drop-at-send below cap: transmit-and-drop reaches the
//     configuration of transmit-and-delay followed by an in-transit drop,
//     so only the at-cap form is explored as a distinct move;
//   - the lazy-drop partial-order reduction (POR): for genie-free protocols
//     — whose endpoints cannot observe in-transit contents — drops commute
//     with every non-drop move, so postponing them until the cap blocks a
//     send preserves endpoint-observable reachability. The reduction is
//     automatically disabled for genie-consulting protocols (the counting
//     family), whose Stale() snapshots do observe drops.
//
// Verdicts are checked against the protocol's optional protocol.DLStatus
// declaration and folded into the repo's audit vocabulary
// (CERTIFIED/CONSISTENT/OBSERVED/FAIL); see judge.
package verify

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/channel"
	"repro/internal/intern"
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/stabilize"
	"repro/internal/trace"
)

// Config bounds one verification run. The zero value is ready to use.
type Config struct {
	// Occupancy caps the in-transit packets per channel (the L of the
	// PROVED-up-to-L claim). Default 2 — the smallest cap that exercises
	// stale-copy replay (one stale plus one fresh copy in transit).
	Occupancy int
	// MaxMessages bounds the submitted messages. Default 3 — the smallest
	// count that lets a bounded-header protocol's alphabet cycle back
	// (the alternating bit attack needs the third message).
	MaxMessages int
	// MaxStates is the exploration budget: the run reports BUDGET instead
	// of PROVED when the visited set reaches it. Default 1 << 18.
	MaxStates int
	// NoPOR disables the lazy-drop partial-order reduction. The zero value
	// (POR on) is sound for every protocol: the reduction auto-disables
	// for genie-consulting protocols regardless of this flag.
	NoPOR bool
	// Stabilize switches the run to self-stabilization mode: the BFS
	// frontier is seeded with every bounded corrupted configuration the
	// protocol declares (internal/stabilize), deliveries are judged by the
	// amnesty classifier instead of the clean-start DL1 check, and PROVED
	// means the protocol converges from every corrupted start within the
	// bounds.
	Stabilize bool
	// MaxPoison caps the pre-loaded poison packets per channel in
	// stabilize mode; <= 0 means 1. It never exceeds Occupancy (poison
	// occupies the channel like any packet).
	MaxPoison int
}

func (c Config) withDefaults() Config {
	if c.Occupancy <= 0 {
		c.Occupancy = 2
	}
	if c.MaxMessages <= 0 {
		c.MaxMessages = 3
	}
	if c.MaxStates <= 0 {
		c.MaxStates = 1 << 18
	}
	if c.MaxPoison <= 0 {
		c.MaxPoison = 1
	}
	if c.MaxPoison > c.Occupancy {
		c.MaxPoison = c.Occupancy
	}
	return c
}

// Verdict is the checker's conclusion about the bounded space.
type Verdict string

const (
	// VerdictProved: the space was exhausted and neither a DL1 violation
	// nor a confirmable livelock exists within the bounds.
	VerdictProved Verdict = "PROVED"
	// VerdictViolated: a violation is reachable; the Report carries the
	// replay-confirmed NFT witness.
	VerdictViolated Verdict = "VIOLATED"
	// VerdictBudget: the state budget cut the exploration off before
	// exhaustion and no violation was found — inconclusive.
	VerdictBudget Verdict = "BUDGET"
)

// Check folds the verdict against the protocol's DLStatus declaration into
// the audit vocabulary shared across nfvet.
type Check string

const (
	// CheckCertified: the verdict proves the declaration — a declared
	// DL-sound protocol PROVED, or a declared-attackable protocol caught.
	CheckCertified Check = "CERTIFIED"
	// CheckConsistent: the verdict does not contradict the declaration but
	// cannot prove it (budget hit, or attack bounds beyond the explored
	// space).
	CheckConsistent Check = "CONSISTENT"
	// CheckObserved: the protocol declares no DLStatus; informational.
	CheckObserved Check = "OBSERVED"
	// CheckFail: the verdict contradicts the declaration, or a witness
	// failed its replay confirmation.
	CheckFail Check = "FAIL"
)

// AttackDecl mirrors a protocol's DLStatus declaration in the report.
type AttackDecl struct {
	Occupancy int `json:"occupancy"`
	Messages  int `json:"messages"`
}

// Sound reports whether the declaration claims DL-soundness at every bound.
func (d AttackDecl) Sound() bool { return d.Occupancy == 0 && d.Messages == 0 }

// Report is the outcome of verifying one protocol. When the verdict is
// PROVED the report is the proof artifact; when VIOLATED it carries the
// confirmed witness schedule.
type Report struct {
	Protocol    string `json:"protocol"`
	Occupancy   int    `json:"occupancy"`
	MaxMessages int    `json:"messages"`
	MaxStates   int    `json:"maxStates"`

	// POR reports whether the lazy-drop reduction was active; PORReason
	// explains a forced-off ("genie-consulting protocol") or requested-off
	// ("disabled") reduction.
	POR       bool   `json:"por"`
	PORReason string `json:"porReason,omitempty"`

	// States and Edges size the explored graph; Exhausted reports whether
	// the space was fully explored or the budget cut it off. SpaceHash is
	// the canonical fingerprint of the visited configuration set (XOR of
	// fnv64a over canonical keys).
	States    int    `json:"states"`
	Edges     int    `json:"edges"`
	Exhausted bool   `json:"exhausted"`
	SpaceHash string `json:"spaceHash"`

	Verdict Verdict `json:"verdict"`
	// Property is the violated property ("DL1" family safety property, or
	// "DL3") when VIOLATED.
	Property string `json:"property,omitempty"`
	// Detail elaborates the violation (checker detail string).
	Detail string `json:"detail,omitempty"`
	// WitnessOps counts the driver operations of the witness schedule;
	// WitnessConfirmed reports the replay confirmation (always true for a
	// reported VIOLATED verdict unless the confirmation itself failed,
	// which is a FAIL).
	WitnessOps       int  `json:"witnessOps,omitempty"`
	WitnessConfirmed bool `json:"witnessConfirmed,omitempty"`

	// DL3Candidates counts stranded no-progress configurations in the
	// explored graph; DL3Attempted how many were re-driven through the
	// livelock certifier. Candidates that recover under the reliable
	// closing drive are occupancy-cap artifacts, not violations.
	DL3Candidates int `json:"dl3Candidates,omitempty"`
	DL3Attempted  int `json:"dl3Attempted,omitempty"`

	// Declared mirrors the protocol's DLStatus declaration, nil when the
	// protocol makes none.
	Declared *AttackDecl `json:"declared,omitempty"`
	Check    Check       `json:"check"`
	Failures []string    `json:"failures,omitempty"`

	// Stabilize-mode fields (zero unless Config.Stabilize): Seeds is the
	// number of corrupted initial configurations the frontier was seeded
	// with, MaxPoison the per-channel poison cap, Seed the corruption key
	// of the diverging seed when VIOLATED, and DeclaredStabilizing the
	// protocol's StabilizeStatus declaration (nil when it makes none).
	Stabilize           bool   `json:"stabilize,omitempty"`
	Seeds               int    `json:"seeds,omitempty"`
	MaxPoison           int    `json:"maxPoison,omitempty"`
	Seed                string `json:"seed,omitempty"`
	DeclaredStabilizing *bool  `json:"declaredStabilizing,omitempty"`

	// Witness is the replay-confirmed NFT counterexample (nil unless
	// VIOLATED): a safety schedule for DL1, a pumped livelock certificate
	// for DL3. It is excluded from the JSON artifact — the CLI writes it
	// as a separate .nft file.
	Witness *trace.Log `json:"-"`
}

// JSON emits the machine-readable proof artifact.
func (r *Report) JSON() ([]byte, error) {
	type alias Report // shed methods, keep tags
	return json.MarshalIndent((*alias)(r), "", "  ")
}

// Run verifies one protocol up to the configured bounds.
func Run(p protocol.Protocol, cfg Config) (*Report, error) {
	return run(p, cfg, newIntStore)
}

// run is Run over the visited set newStore builds. The tests pass the
// reference store (refStore, store_test.go) to hold intStore to it.
func run(p protocol.Protocol, cfg Config, newStore func(*chunked[intKey], renderer) store) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{
		Protocol:    p.Name(),
		Occupancy:   cfg.Occupancy,
		MaxMessages: cfg.MaxMessages,
		MaxStates:   cfg.MaxStates,
	}

	e := &explorer{cfg: cfg, proto: p, tab: intern.NewLocal(), pkts: newPktIntern()}
	if cfg.Stabilize {
		if cfg.MaxMessages > stabilize.MaxLost {
			return nil, fmt.Errorf("verify: stabilize mode tracks at most %d message positions, got MaxMessages=%d",
				stabilize.MaxLost, cfg.MaxMessages)
		}
		rep.Stabilize = true
		rep.MaxPoison = cfg.MaxPoison
	}

	// The lazy-drop reduction is sound only when the endpoints cannot
	// observe in-transit contents; genie users can (Stale snapshots), so
	// the reduction is forced off for them.
	init := newInit(p)
	_, tGenie := init.t.(protocol.AckGenieUser)
	_, rGenie := init.r.(protocol.DataGenieUser)
	switch {
	case tGenie || rGenie:
		e.por = false
		rep.PORReason = "genie-consulting protocol"
	case cfg.NoPOR:
		e.por = false
		rep.PORReason = "disabled"
	default:
		e.por = true
	}
	rep.POR = e.por

	e.seen = newStore(&e.keys, e.render)
	var err error
	if rep.Seeds, err = e.visitRoots(); err != nil {
		return nil, err
	}
	exhausted := true
	for head := int32(0); int(head) < e.queue.len(); head++ {
		if e.violation != nil {
			exhausted = false
			break
		}
		if e.keys.len() >= cfg.MaxStates {
			exhausted = false
			break
		}
		s := e.queue.at(head)
		e.expand(s)
		// Recycle the configuration once its wave has passed; only its
		// packed key and parent edge are needed afterwards, so its struct
		// and channel storage go back to the freelist for cloneOf. Its
		// queue entry is never read again.
		e.release(s)
	}

	rep.States = e.keys.len()
	rep.Edges = e.nedges
	rep.Exhausted = exhausted
	rep.SpaceHash = fmt.Sprintf("%016x", e.seen.hash())

	switch {
	case e.violation != nil:
		rep.Verdict = VerdictViolated
		moves, root := e.chain(e.violation.parent, &e.violation.mv)
		wl, werr := e.witnessLog(moves, root)
		if werr == nil {
			var v *ioa.Violation
			if cfg.Stabilize {
				seed := e.roots[root]
				rep.Seed = seed.Key()
				wl, v, werr = confirmStabilize(wl, seed, cfg.Occupancy)
			} else {
				wl, v, werr = confirmSafety(wl)
			}
			if werr == nil {
				rep.Witness = wl
				rep.WitnessConfirmed = true
				rep.Property = v.Property
				rep.Detail = e.violation.detail
				rep.WitnessOps = countOps(wl)
			}
		}
		if werr != nil {
			rep.Failures = append(rep.Failures, werr.Error())
		}
	case exhausted:
		cands := e.strandedCandidates()
		rep.DL3Candidates = len(cands)
		if len(cands) > 0 {
			cert, pumped, attempted, err := e.confirmLivelock(cands)
			rep.DL3Attempted = attempted
			if err != nil {
				rep.Failures = append(rep.Failures, err.Error())
			}
			if cert != nil {
				rep.Verdict = VerdictViolated
				rep.Property = "DL3"
				rep.Detail = cert.DL3.Detail
				rep.Witness = pumped
				rep.WitnessConfirmed = true
				rep.WitnessOps = countOps(pumped)
			}
		}
		if rep.Verdict == "" {
			rep.Verdict = VerdictProved
		}
	default:
		rep.Verdict = VerdictBudget
	}

	if cfg.Stabilize {
		judgeStabilize(rep, p)
	} else {
		judge(rep, p)
	}
	return rep, nil
}

// visitRoots visits the exploration's roots and returns the number of
// corrupted seeds. A clean run has the single root newInit. In stabilize
// mode the frontier is seeded with the full bounded corrupted space: every
// declared endpoint-state pair crossed with every poison multiset. Each
// seed is a BFS root carrying its own amnesty; subspaces that reconverge to
// identical joint configurations with identical bookkeeping dedup across
// seeds.
func (e *explorer) visitRoots() (int, error) {
	if !e.cfg.Stabilize {
		e.visit(newInit(e.proto), -1, move{})
		return 0, nil
	}
	e.roots = make(map[int32]stabilize.Corruption)
	seeds := stabilize.Enumerate(e.proto, e.cfg.MaxPoison)
	for _, seed := range seeds {
		root, err := corruptInit(e.proto, seed, e.cfg.Occupancy)
		if err != nil {
			return 0, err
		}
		if id, fresh := e.visit(root, -1, move{}); fresh {
			e.roots[id] = seed
		}
	}
	return len(seeds), nil
}

// newInit builds the clean initial configuration.
func newInit(p protocol.Protocol) *config {
	init := &config{
		chData: channel.NewNonFIFO(ioa.TtoR),
		chAck:  channel.NewNonFIFO(ioa.RtoT),
	}
	init.t, init.r = p.New(
		channel.ChannelGenie{Ch: init.chData},
		channel.ChannelGenie{Ch: init.chAck},
	)
	return init
}

// corruptInit builds the initial configuration for one corrupted seed:
// declared endpoint states (genies rebound to the fresh channels) and the
// poison packets pre-loaded in transit, with the seed's amnesty as the
// remaining fault budget.
func corruptInit(p protocol.Protocol, seed stabilize.Corruption, occupancy int) (*config, error) {
	init := newInit(p)
	if seed.TIdx != 0 || seed.RIdx != 0 {
		cp, ok := p.(protocol.Corruptible)
		if !ok {
			return nil, fmt.Errorf("verify: seed %s for non-Corruptible protocol %s", seed, p.Name())
		}
		space := cp.Corruptions()
		if seed.TIdx < 0 || seed.TIdx >= len(space.Transmitters) || seed.RIdx < 0 || seed.RIdx >= len(space.Receivers) {
			return nil, fmt.Errorf("verify: seed %s out of range for protocol %s", seed, p.Name())
		}
		init.t = space.Transmitters[seed.TIdx].Clone()
		init.r = space.Receivers[seed.RIdx].Clone()
		protocol.BindGenies(init.t, init.r, init.chData, init.chAck)
	}
	for _, pkt := range seed.Data {
		init.chData.Send(pkt)
	}
	for _, pkt := range seed.Ack {
		init.chAck.Send(pkt)
	}
	init.remaining = int32(stabilize.Amnesty(seed, occupancy))
	return init, nil
}

func countOps(l *trace.Log) int {
	n := 0
	for _, ev := range l.Events {
		if ev.Kind.IsOp() {
			n++
		}
	}
	return n
}

// judge fills in the Check by comparing the verdict against the protocol's
// DLStatus declaration.
func judge(rep *Report, p protocol.Protocol) {
	if rep.Verdict == VerdictViolated && !rep.WitnessConfirmed {
		rep.Failures = append(rep.Failures,
			"violation explored but its witness failed replay confirmation (verifier/simulator drift)")
		rep.Check = CheckFail
		return
	}

	ds, ok := p.(protocol.DLStatus)
	if !ok {
		rep.Check = CheckObserved
		return
	}
	occ, msg := ds.AttackBounds()
	rep.Declared = &AttackDecl{Occupancy: occ, Messages: msg}

	switch rep.Verdict {
	case VerdictViolated:
		if rep.Declared.Sound() {
			rep.Failures = append(rep.Failures, fmt.Sprintf(
				"declared DL-sound but a replay-confirmed %s violation is reachable at occupancy %d with %d message(s)",
				rep.Property, rep.Occupancy, rep.MaxMessages))
			rep.Check = CheckFail
		} else {
			rep.Check = CheckCertified
		}
	case VerdictProved:
		switch {
		case rep.Declared.Sound():
			rep.Check = CheckCertified
		case rep.Occupancy >= occ && rep.MaxMessages >= msg:
			rep.Failures = append(rep.Failures, fmt.Sprintf(
				"declared attackable at occupancy>=%d, messages>=%d, but the space up to occupancy %d, %d message(s) is exhausted violation-free",
				occ, msg, rep.Occupancy, rep.MaxMessages))
			rep.Check = CheckFail
		default:
			// Proved clean below the declared attack bounds: consistent —
			// the attack needs more room than this run explored.
			rep.Check = CheckConsistent
		}
	default: // BUDGET
		rep.Check = CheckConsistent
	}
}

// judgeStabilize fills in the Check for stabilize-mode runs by comparing
// the verdict against the protocol's StabilizeStatus declaration: PROVED
// certifies a declared self-stabilizing protocol, a confirmed divergence
// certifies a declared non-stabilizing one, and the cross cases are
// verifier-caught declaration bugs.
func judgeStabilize(rep *Report, p protocol.Protocol) {
	if rep.Verdict == VerdictViolated && !rep.WitnessConfirmed {
		rep.Failures = append(rep.Failures,
			"divergence explored but its witness failed replay confirmation (verifier/simulator drift)")
		rep.Check = CheckFail
		return
	}
	ss, ok := p.(protocol.StabilizeStatus)
	if !ok {
		rep.Check = CheckObserved
		return
	}
	decl := ss.SelfStabilizing()
	rep.DeclaredStabilizing = &decl
	switch rep.Verdict {
	case VerdictViolated:
		if decl {
			rep.Failures = append(rep.Failures, fmt.Sprintf(
				"declared self-stabilizing but a replay-confirmed %s divergence is reachable from corrupted start %s",
				rep.Property, rep.Seed))
			rep.Check = CheckFail
		} else {
			rep.Check = CheckCertified
		}
	case VerdictProved:
		if decl {
			rep.Check = CheckCertified
		} else {
			rep.Failures = append(rep.Failures, fmt.Sprintf(
				"declared non-stabilizing but every corrupted start up to occupancy %d, %d message(s), %d poison/channel converges within amnesty",
				rep.Occupancy, rep.MaxMessages, rep.MaxPoison))
			rep.Check = CheckFail
		}
	default: // BUDGET
		rep.Check = CheckConsistent
	}
}

// String renders the report in the fixed layout the golden tests pin down.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "protocol:   %s\n", r.Protocol)
	fmt.Fprintf(&b, "occupancy:  %d\n", r.Occupancy)
	fmt.Fprintf(&b, "messages:   %d\n", r.MaxMessages)
	if r.Stabilize {
		fmt.Fprintf(&b, "stabilize:  %d corrupted seed(s), max poison %d/channel\n", r.Seeds, r.MaxPoison)
	}
	if r.POR {
		fmt.Fprintf(&b, "por:        on (lazy drops)\n")
	} else {
		fmt.Fprintf(&b, "por:        off (%s)\n", r.PORReason)
	}
	switch {
	case r.Exhausted:
		fmt.Fprintf(&b, "states:     %d (exhausted)\n", r.States)
	case r.Verdict == VerdictViolated:
		fmt.Fprintf(&b, "states:     %d (stopped at first violation)\n", r.States)
	default:
		fmt.Fprintf(&b, "states:     %d (budget %d hit)\n", r.States, r.MaxStates)
	}
	fmt.Fprintf(&b, "edges:      %d\n", r.Edges)
	fmt.Fprintf(&b, "space-hash: %s\n", r.SpaceHash)
	switch r.Verdict {
	case VerdictViolated:
		fmt.Fprintf(&b, "verdict:    VIOLATED (%s)\n", r.Property)
		fmt.Fprintf(&b, "  detail:   %s\n", r.Detail)
		if r.Seed != "" {
			fmt.Fprintf(&b, "  seed:     %s\n", r.Seed)
		}
		if r.WitnessConfirmed {
			fmt.Fprintf(&b, "witness:    %d ops, replay-confirmed\n", r.WitnessOps)
		}
	default:
		fmt.Fprintf(&b, "verdict:    %s\n", r.Verdict)
	}
	if r.DL3Candidates > 0 && r.Verdict != VerdictViolated {
		fmt.Fprintf(&b, "dl3:        %d stranded candidate(s), %d re-driven, none livelock (recover under reliable drive)\n",
			r.DL3Candidates, r.DL3Attempted)
	}
	switch {
	case r.Stabilize:
		switch {
		case r.DeclaredStabilizing == nil:
			fmt.Fprintf(&b, "declared:   (none)\n")
		case *r.DeclaredStabilizing:
			fmt.Fprintf(&b, "declared:   self-stabilizing\n")
		default:
			fmt.Fprintf(&b, "declared:   not self-stabilizing\n")
		}
	case r.Declared == nil:
		fmt.Fprintf(&b, "declared:   (none)\n")
	case r.Declared.Sound():
		fmt.Fprintf(&b, "declared:   DL-sound\n")
	default:
		fmt.Fprintf(&b, "declared:   attackable at occupancy>=%d, messages>=%d\n",
			r.Declared.Occupancy, r.Declared.Messages)
	}
	fmt.Fprintf(&b, "check:      %s\n", r.Check)
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  fail:     %s\n", f)
	}
	return b.String()
}
