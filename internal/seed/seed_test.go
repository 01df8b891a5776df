package seed

import "testing"

func TestSplitDeterministicAndDistinct(t *testing.T) {
	// Stable across calls.
	if Split(3, "E4") != Split(3, "E4") {
		t.Fatal("Split is not deterministic")
	}
	// Distinct across streams and across roots, including the collision
	// shapes the old affine formulas allowed (different (root, stream)
	// pairs mapping to one seed).
	seen := make(map[int64]string)
	for root := int64(0); root < 50; root++ {
		for _, stream := range []string{"E4", "E5/n=8", "E5/n=16", "E6/seqnum", "E6/altbit", "E11/q=0.25"} {
			s := Split(root, stream)
			key := stream + "@" + string(rune(root))
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %q and %q both map to %d", prev, key, s)
			}
			seen[s] = key
		}
	}
}

func TestSplitGoldenValues(t *testing.T) {
	// The derivation is part of experiment reproducibility: these values
	// must never change without a deliberate (documented) break.
	cases := []struct {
		root   int64
		stream string
		want   int64
	}{
		{0, "E4", 7559500658952375772},
		{1, "E5/n=8", -4700452118398434034},
		{7, "E6/seqnum", 3090647103791314087},
	}
	for _, c := range cases {
		if got := Split(c.root, c.stream); got != c.want {
			t.Fatalf("Split(%d, %q) = %d, want %d", c.root, c.stream, got, c.want)
		}
	}
}
