package replay

import (
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestSightingsRepeatOnlyOnEqualBytes: the closing drive's cycle check
// declares a repeat only on byte equality. A key whose hash is indexed to
// a different key (a collision, forced here by pointing the index at it)
// is recorded as new, and found again afterwards by the exact scan; a
// reset forgets every key.
func TestSightingsRepeatOnlyOnEqualBytes(t *testing.T) {
	s := sightings{first: make(map[uint64]int)}
	for round, k := range []string{"t0|r0|{}|{}|0", "t1|r0|{d0×1}|{}|0"} {
		if _, ok := s.see([]byte(k), round); ok {
			t.Fatalf("first sighting of %q reported as a repeat", k)
		}
	}
	collider := []byte("t0|r1|{}|{a0×1}|1")
	s.first[keyHash(collider)] = 0
	if at, ok := s.see(collider, 2); ok {
		t.Fatalf("a hash collision with key 0 certified a repeat at %d", at)
	}
	for k, want := range map[string]int{"t1|r0|{d0×1}|{}|0": 1, string(collider): 2, "t0|r0|{}|{}|0": 0} {
		if at, ok := s.see([]byte(k), 9); !ok || at != want {
			t.Errorf("repeat of %q: at %d, %v; want at %d", k, at, ok, want)
		}
	}
	s.reset()
	if _, ok := s.see([]byte("t0|r0|{}|{}|0"), 0); ok {
		t.Error("a reset sightings log still remembers a key")
	}
}

// TestSightingsResetAfterLongDrive: after a drive that saw many keys, a
// reset and a short drive answer what a new sightings log answers, repeat
// positions included, and the index and its list of hashes hold only the
// short drive's keys.
func TestSightingsResetAfterLongDrive(t *testing.T) {
	s := sightings{first: make(map[uint64]int)}
	short := []string{"t0|r0|{}|{}|0", "t1|r0|{d0×1}|{}|0", "t1|r1|{}|{a0×1}|1", "t1|r0|{d0×1}|{}|0", "t0|r0|{}|{}|0"}
	for _, n := range []int{2000, 5, 3000, 2} {
		s.reset()
		for i := 0; i < n; i++ {
			if _, ok := s.see([]byte("long|"+strconv.Itoa(i)), i); ok {
				t.Fatalf("drive of %d keys: key %d reported as a repeat", n, i)
			}
		}
		s.reset()
		fresh := sightings{first: make(map[uint64]int)}
		for round, k := range short {
			gat, gok := s.see([]byte(k), round)
			wat, wok := fresh.see([]byte(k), round)
			if gat != wat || gok != wok {
				t.Fatalf("after a drive of %d keys, round %d: seen at %d, %v; a new log says %d, %v", n, round, gat, gok, wat, wok)
			}
		}
		if len(s.first) != len(fresh.first) || !slices.Equal(s.hashes, fresh.hashes) || !slices.Equal(s.pos, fresh.pos) {
			t.Fatalf("after a drive of %d keys the index holds %d keys, lists %x; a new one %d, %x",
				n, len(s.first), s.hashes, len(fresh.first), fresh.hashes)
		}
	}
}

// TestExecDriveAfterLongDrive: an executor whose closing drive passed
// hundreds of configurations (200 messages driven to quiescence) and then
// runs short drives reports what a new executor reports for them: rounds,
// verdicts, and the cycle's key and positions. The short drives are random
// logs and, for altbit, its stranded message, which cycles under the
// adversarial drive.
func TestExecDriveAfterLongDrive(t *testing.T) {
	for _, name := range []string{"altbit", "seqnum"} {
		p := replayLookup(t, name)
		l := trace.NewLog(nil)
		r := sim.NewRunner(sim.Config{Protocol: p, TraceLog: l})
		for i := 0; i < 200; i++ {
			r.SubmitMsg(protocol.Payload(i))
		}
		shorts := []*trace.Log{randomLog(t, p, 1, 12, false), randomLog(t, p, 2, 30, false)}
		if name == "altbit" {
			shorts = append(shorts, strandedAltbitLog(t))
		}
		x := NewExec(p)
		cycles := 0
		for i, short := range shorts {
			long, err := x.close(l.Events, DriveReliable, 0)
			if err != nil || !long.Quiescent || long.Rounds < 200 {
				t.Fatalf("%s: the long drive: %+v, %v; want quiescence after at least 200 rounds", name, long, err)
			}
			for _, mode := range driveModes {
				got, gerr := x.close(short.Events, mode, 0)
				want, werr := NewExec(p).close(short.Events, mode, 0)
				if gerr != nil || werr != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s log %d, %s drive after a long one: %+v (%v); a new executor: %+v (%v)", name, i, mode, got, gerr, want, werr)
				}
				if got.CycleFound {
					cycles++
				}
			}
		}
		if name == "altbit" && cycles == 0 {
			t.Fatal("altbit: no short drive found a cycle")
		}
	}
}
