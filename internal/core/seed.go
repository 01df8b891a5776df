package core

import "repro/internal/seed"

// SplitSeed is seed.Split, kept for callers outside this module's
// internal packages that still name it here.
func SplitSeed(root int64, stream string) int64 { return seed.Split(root, stream) }
