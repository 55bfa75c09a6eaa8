package main

import (
	"testing"

	"bgploop/internal/experiment"
)

// TestTracedTrialMatchesRun pins the re-assembled trial to the real run
// loop: for every trial workload and two seeds, the traced trial yields
// the Result experiment.Run yields. While this holds, the attribution
// table describes the loop the end-to-end numbers time.
func TestTracedTrialMatchesRun(t *testing.T) {
	for _, name := range []string{"inet110-tdown", "clique10-mrai0", "inet1000-tlong"} {
		w := findWorkload(name)
		for _, seed := range []int64{1, 2} {
			p, err := w.prepare(w, seed, t.TempDir())
			if err != nil {
				t.Fatalf("%s seed %d: prepare: %v", name, seed, err)
			}
			s, err := p.gen(0)
			if err != nil {
				t.Fatalf("%s seed %d: generate: %v", name, seed, err)
			}
			want, err := experiment.Run(s)
			if err != nil {
				t.Fatalf("%s seed %d: run: %v", name, seed, err)
			}
			var prof kernelProfile
			gen := func() (experiment.Scenario, error) { return p.gen(0) }
			got, err := tracedTrial(gen, w.name == "inet1000-tlong", newTracer(), 0, -1, &prof)
			if err != nil {
				t.Fatalf("%s seed %d: traced trial: %v", name, seed, err)
			}
			wantDigest, err := experiment.DigestResult(want)
			if err != nil {
				t.Fatal(err)
			}
			gotDigest, err := experiment.DigestResult(got)
			if err != nil {
				t.Fatal(err)
			}
			if gotDigest != wantDigest {
				t.Errorf("%s seed %d: traced digest %s != run digest %s", name, seed, gotDigest, wantDigest)
			}
			if got.EventsExecuted != want.EventsExecuted || got.UpdatesSent != want.UpdatesSent ||
				got.PacketsSent != want.PacketsSent || got.TTLExhaustions != want.TTLExhaustions {
				t.Errorf("%s seed %d: traced events/updates/packets/ttl %d/%d/%d/%d, run %d/%d/%d/%d", name, seed,
					got.EventsExecuted, got.UpdatesSent, got.PacketsSent, got.TTLExhaustions,
					want.EventsExecuted, want.UpdatesSent, want.PacketsSent, want.TTLExhaustions)
			}
			// The counters the hooks took agree with the Result's own.
			if prof.Events != want.EventsExecuted || prof.Updates != want.UpdatesSent || prof.Packets != want.PacketsSent {
				t.Errorf("%s seed %d: hook counts events/updates/packets %d/%d/%d, run %d/%d/%d", name, seed,
					prof.Events, prof.Updates, prof.Packets, want.EventsExecuted, want.UpdatesSent, want.PacketsSent)
			}
		}
	}
}
