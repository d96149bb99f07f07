//go:build race

package core

// poisonDefault turns poison-on-reset on under the race detector:
// race/debug builds pay the memset so reads of a reset slab that slip
// past the presence bitmap surface as loud garbage. Release builds skip
// it (poison_release.go).
const poisonDefault = true
