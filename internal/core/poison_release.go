//go:build !race

package core

// poisonDefault leaves poison-on-reset off in regular builds; the
// race-enabled suite (make race, make check) runs with it on, and tests
// flip the poisonResets var directly to pin slab reuse without the race
// detector.
const poisonDefault = false
