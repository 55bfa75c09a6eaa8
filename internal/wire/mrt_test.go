package wire

import (
	"bytes"
	"testing"
	"time"

	"bgploop/internal/routing"
	"bgploop/internal/trace"
)

func TestMRTRoundTrip(t *testing.T) {
	msg, err := MarshalUpdate(Update{
		ASPath:  []uint16{5, 4, 0},
		NextHop: [4]byte{10, 255, 0, 5},
		NLRI:    []Prefix{SimPrefix(0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	in := MRTRecord{Timestamp: 42 * time.Second, PeerAS: 5, LocalAS: 6, Message: msg}
	framed, err := MarshalMRT(in)
	if err != nil {
		t.Fatal(err)
	}
	out, rest, err := UnmarshalMRT(framed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("leftover bytes: %d", len(rest))
	}
	if out.Timestamp != in.Timestamp || out.PeerAS != 5 || out.LocalAS != 6 {
		t.Errorf("record = %+v", out)
	}
	if !bytes.Equal(out.Message, msg) {
		t.Error("embedded message corrupted")
	}
}

func TestMRTErrors(t *testing.T) {
	if _, err := MarshalMRT(MRTRecord{Message: []byte{1, 2}}); err == nil {
		t.Error("short embedded message accepted")
	}
	if _, _, err := UnmarshalMRT([]byte{1, 2, 3}); err == nil {
		t.Error("short record accepted")
	}
	// A valid header claiming a non-BGP4MP type.
	msg := keepalive()
	rec, err := MarshalMRT(MRTRecord{Message: msg})
	if err != nil {
		t.Fatal(err)
	}
	rec[5] = 99 // type
	if _, _, err := UnmarshalMRT(rec); err == nil {
		t.Error("wrong MRT type accepted")
	}
	// Truncated body.
	rec2, err := MarshalMRT(MRTRecord{Message: msg})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := UnmarshalMRT(rec2[:len(rec2)-3]); err == nil {
		t.Error("truncated MRT body accepted")
	}
}

func TestDumpTraceMRT(t *testing.T) {
	events := []trace.Event{
		{At: time.Second, Kind: trace.KindAnnounce, Node: 5, Peer: 6, Dest: 0,
			Path: routing.Path{5, 4, 0}},
		{At: 2 * time.Second, Kind: trace.KindRouteChange, Node: 5, Dest: 0},
		{At: 90 * time.Second, Kind: trace.KindWithdraw, Node: 4, Peer: 5, Dest: 0},
	}
	var buf bytes.Buffer
	n, err := DumpTraceMRT(&buf, events)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("wrote %d records", n)
	}
	recs, err := ReadMRTStream(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("read %d records", len(recs))
	}
	if recs[0].Timestamp != time.Second || recs[0].PeerAS != 5 || recs[0].LocalAS != 6 {
		t.Errorf("record 0 = %+v", recs[0])
	}
	if recs[1].Timestamp != 90*time.Second {
		t.Errorf("record 1 timestamp = %v", recs[1].Timestamp)
	}
	up, err := DecodeSimUpdate(recs[1].Message)
	if err != nil {
		t.Fatal(err)
	}
	if !up.Withdraw {
		t.Error("record 1 not a withdrawal")
	}
}

func TestReadMRTStreamGarbage(t *testing.T) {
	if _, err := ReadMRTStream([]byte{9, 9, 9}); err == nil {
		t.Error("garbage MRT stream accepted")
	}
}
