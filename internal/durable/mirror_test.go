package durable_test

import (
	"testing"

	"bgploop/internal/des"
	"bgploop/internal/durable"
)

// TestScheduleStreamMirrorsDes pins the claim in faultfs.go and DESIGN.md:
// RandomSchedule's generator is des.RNG.Stream("durable/faults") bit for
// bit, re-derived locally only because des → invariant → durable.
func TestScheduleStreamMirrorsDes(t *testing.T) {
	for i := int64(-3); i < 17; i++ {
		seed := i * 0x5DEECE66D
		got := durable.ScheduleStream(seed)
		want := des.NewRNG(seed).Stream("durable/faults")
		for k := 0; k < 100; k++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: scheduleStream gives %d, des gives %d", seed, k, g, w)
			}
		}
	}
}
