package wire

import (
	"testing"
	"testing/quick"

	"bgploop/internal/bgp"
	"bgploop/internal/routing"
	"bgploop/internal/topology"
)

func TestSimPrefixRoundTrip(t *testing.T) {
	for _, dest := range []topology.Node{0, 1, 255, 256, 4095} {
		p := SimPrefix(dest)
		back, err := SimDest(p)
		if err != nil {
			t.Fatalf("dest %d: %v", dest, err)
		}
		if back != dest {
			t.Errorf("dest %d round-tripped to %d", dest, back)
		}
	}
	if _, err := SimDest(Prefix{Bits: 16, Addr: [4]byte{10, 0, 0, 0}}); err == nil {
		t.Error("non-/24 accepted as simulator prefix")
	}
	if _, err := SimDest(Prefix{Bits: 24, Addr: [4]byte{192, 0, 2, 0}}); err == nil {
		t.Error("non-10/8 accepted as simulator prefix")
	}
}

func TestEncodeDecodeSimAnnouncement(t *testing.T) {
	in := bgp.Update{Dest: 0, Path: routing.Path{5, 6, 4, 0}}
	msg, err := EncodeSimUpdate(5, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeSimUpdate(msg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Withdraw || out.Dest != 0 || !out.Path.Equal(in.Path) {
		t.Errorf("round trip: %+v != %+v", out, in)
	}
}

func TestEncodeDecodeSimWithdrawal(t *testing.T) {
	in := bgp.Update{Dest: 7, Withdraw: true}
	msg, err := EncodeSimUpdate(3, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeSimUpdate(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Withdraw || out.Dest != 7 {
		t.Errorf("round trip: %+v", out)
	}
}

func TestEncodeSimUpdateBadAS(t *testing.T) {
	in := bgp.Update{Dest: 0, Path: routing.Path{70000, 0}}
	if _, err := EncodeSimUpdate(5, in); err == nil {
		t.Error("4-byte ASN accepted by 2-octet encoder")
	}
}

// TestDecodeSimUpdateTopBitAS: an AS with its top bit set reads as the
// same, positive node id; none turns negative or wraps.
func TestDecodeSimUpdateTopBitAS(t *testing.T) {
	msg, err := MarshalUpdate(Update{
		ASPath:  []uint16{0x8000, 0xFFFF, 0},
		NextHop: [4]byte{10, 255, 0, 1},
		NLRI:    []Prefix{SimPrefix(0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeSimUpdate(msg)
	if err != nil {
		t.Fatal(err)
	}
	if want := (routing.Path{32768, 65535, 0}); !out.Path.Equal(want) {
		t.Errorf("path %v, want %v", out.Path, want)
	}
}

func TestDecodeSimUpdateWrongShape(t *testing.T) {
	// Two NLRI entries: not a simulator message.
	msg, err := MarshalUpdate(Update{
		ASPath:  []uint16{1},
		NextHop: [4]byte{1, 2, 3, 4},
		NLRI: []Prefix{
			SimPrefix(1),
			SimPrefix(2),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSimUpdate(msg); err == nil {
		t.Error("multi-route update accepted as simulator update")
	}
}

// TestPropertySimUpdateRoundTrip round-trips random simulator updates
// through the wire format.
func TestPropertySimUpdateRoundTrip(t *testing.T) {
	f := func(destSeed uint16, hops []uint16, withdraw bool) bool {
		dest := topology.Node(destSeed % 4096)
		var in bgp.Update
		in.Dest = dest
		if withdraw {
			in.Withdraw = true
		} else {
			if len(hops) > 60 {
				hops = hops[:60]
			}
			for _, h := range hops {
				in.Path = append(in.Path, topology.Node(h))
			}
			in.Path = append(in.Path, dest)
		}
		msg, err := EncodeSimUpdate(9, in)
		if err != nil {
			return false
		}
		out, err := DecodeSimUpdate(msg)
		if err != nil {
			return false
		}
		if out.Withdraw != in.Withdraw || out.Dest != in.Dest {
			return false
		}
		return out.Path.Equal(in.Path)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
