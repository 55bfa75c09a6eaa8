package trace

import (
	"strings"
	"testing"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/des"
	"bgploop/internal/routing"
	"bgploop/internal/topology"
)

func sampleUpdate(withdraw bool) bgp.Update {
	if withdraw {
		return bgp.Update{Dest: 0, Withdraw: true}
	}
	return bgp.Update{Dest: 0, Path: routing.Path{5, 4, 0}}
}

func TestRecorderCaptures(t *testing.T) {
	var r Recorder
	r.UpdateSent(time.Second, 5, 6, sampleUpdate(false))
	r.UpdateSent(2*time.Second, 4, 5, sampleUpdate(true))
	r.RouteChanged(3*time.Second, 5, 0, 6, nil)
	r.RouteChanged(4*time.Second, 5, 0, topology.None, nil)

	want := []struct {
		at   des.Time
		kind Kind
	}{
		{time.Second, KindAnnounce},
		{2 * time.Second, KindWithdraw},
		{3 * time.Second, KindRouteChange},
		{4 * time.Second, KindRouteChange},
	}
	got := r.Events()
	if len(got) != len(want) || r.Dropped() != 0 {
		t.Fatalf("recorded %d events (%d dropped), want %d", len(got), r.Dropped(), len(want))
	}
	for i, w := range want {
		if got[i].At != w.at || got[i].Kind != w.kind {
			t.Errorf("event %d = %v %v, want %v %v", i, got[i].At, got[i].Kind, w.at, w.kind)
		}
	}
}

func TestRecorderLimit(t *testing.T) {
	r := Recorder{Limit: 2}
	for i := 0; i < 5; i++ {
		r.RouteChanged(des.Time(i)*time.Second, 1, 0, 2, nil)
	}
	if len(r.Events()) != 2 || r.Dropped() != 3 {
		t.Errorf("len=%d dropped=%d, want 2/3", len(r.Events()), r.Dropped())
	}
	if last := r.Events()[1].At; last != time.Second {
		t.Errorf("kept event at %v, want the first two (last at 1s)", last)
	}
}

func TestEventString(t *testing.T) {
	tests := []struct {
		e    Event
		want []string
	}{
		{
			Event{At: time.Second, Kind: KindAnnounce, Node: 5, Peer: 6, Dest: 0, Path: routing.Path{5, 4, 0}},
			[]string{"announce 5->6", "(5 4 0)"},
		},
		{
			Event{At: time.Second, Kind: KindWithdraw, Node: 4, Peer: 5, Dest: 0},
			[]string{"withdraw 4->5"},
		},
		{
			Event{At: time.Second, Kind: KindRouteChange, Node: 5, Dest: 0, NextHop: 4, Path: routing.Path{5, 4, 0}},
			[]string{"route", "nexthop 4"},
		},
		{
			Event{At: time.Second, Kind: KindRouteChange, Node: 5, Dest: 0, NextHop: topology.None},
			[]string{"unreachable"},
		},
	}
	for _, tt := range tests {
		s := tt.e.String()
		for _, want := range tt.want {
			if !strings.Contains(s, want) {
				t.Errorf("%q missing %q", s, want)
			}
		}
	}
}

func TestKindString(t *testing.T) {
	if KindAnnounce.String() != "announce" || KindWithdraw.String() != "withdraw" || KindRouteChange.String() != "route" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind empty")
	}
}

func TestRecorderClonesPaths(t *testing.T) {
	var r Recorder
	p := routing.Path{5, 4, 0}
	r.UpdateSent(time.Second, 5, 6, bgp.Update{Dest: 0, Path: p})
	p[0] = 99
	if r.Events()[0].Path[0] != 5 {
		t.Error("recorder aliased the update's path")
	}
}
