package core

import "repro/internal/seed"

// SplitSeed forwards to seed.Split. Nothing in this module calls it; the
// benchmark module (nfperf) still does.
func SplitSeed(root int64, stream string) int64 { return seed.Split(root, stream) }
