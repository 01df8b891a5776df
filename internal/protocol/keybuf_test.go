package protocol

import (
	"fmt"
	"strings"
	"testing"
)

// TestKeyBufMatchesFmt pins the append-based key builder to the fmt verbs it
// replaced. State keys are hashed into the fuzzer's coverage points and
// memoized by the adversary constructions, so the rendering must stay
// canonical; this is the oracle that keyBuf and %d/%t/%q/%v/%s agree on
// every value class the protocols use (negative ints, quoting-relevant
// strings, [2]int arrays, queues with separator collisions).
func TestKeyBufMatchesFmt(t *testing.T) {
	queue := []string{"p|q", "", `quote"back\slash`, "émoji⚡"}
	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{
		{
			"ints",
			keyTo(nil, "k{").d(0).s(" ").d(-17).s(" ").d(1 << 40).s("}").bytes(),
			fmt.Sprintf("k{%d %d %d}", 0, -17, 1<<40),
		},
		{
			"bools",
			keyTo(nil, "").t(true).s(" ").t(false).bytes(),
			fmt.Sprintf("%t %t", true, false),
		},
		{
			"quoted strings",
			keyTo(nil, "").q("").s(" ").q("a\"b\n\x00").s(" ").q("émoji⚡").bytes(),
			fmt.Sprintf("%q %q %q", "", "a\"b\n\x00", "émoji⚡"),
		},
		{
			"int pairs",
			keyTo(nil, "").pair([2]int{7, -42}).bytes(),
			fmt.Sprintf("%v", [2]int{7, -42}),
		},
		{
			"queues",
			keyTo(nil, "").queue(queue).s(";").queue(nil).bytes(),
			fmt.Sprintf("%s;%s", strings.Join(queue, "|"), strings.Join(nil, "|")),
		},
	} {
		if string(tc.got) != tc.want {
			t.Errorf("%s: keyBuf rendered %q, fmt rendered %q", tc.name, tc.got, tc.want)
		}
	}
}
