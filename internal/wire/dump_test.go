package wire

import (
	"bytes"
	"testing"
	"time"

	"bgploop/internal/routing"
	"bgploop/internal/trace"
)

func TestDumpTraceAndReadStream(t *testing.T) {
	events := []trace.Event{
		{At: time.Second, Kind: trace.KindAnnounce, Node: 5, Peer: 6, Dest: 0,
			Path: routing.Path{5, 4, 0}},
		{At: 2 * time.Second, Kind: trace.KindRouteChange, Node: 5, Dest: 0}, // skipped
		{At: 3 * time.Second, Kind: trace.KindWithdraw, Node: 4, Peer: 5, Dest: 0},
	}
	var buf bytes.Buffer
	n, err := DumpTrace(&buf, events)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("wrote %d messages, want 2", n)
	}
	msgs, err := ReadStream(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 {
		t.Fatalf("read %d messages", len(msgs))
	}
	up0, err := DecodeSimUpdate(msgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if up0.Withdraw || !up0.Path.Equal(routing.Path{5, 4, 0}) {
		t.Errorf("first message = %+v", up0)
	}
	up1, err := DecodeSimUpdate(msgs[1])
	if err != nil {
		t.Fatal(err)
	}
	if !up1.Withdraw || up1.Dest != 0 {
		t.Errorf("second message = %+v", up1)
	}
}

func TestDumpTraceEncodeError(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindAnnounce, Node: 5, Dest: 0, Path: routing.Path{100000, 0}},
	}
	var buf bytes.Buffer
	if _, err := DumpTrace(&buf, events); err == nil {
		t.Error("unencodable path accepted")
	}
}

func TestReadStreamGarbage(t *testing.T) {
	if _, err := ReadStream([]byte{1, 2, 3}); err == nil {
		t.Error("garbage stream accepted")
	}
	msg := keepalive()
	stream := append(append([]byte(nil), msg...), msg[:5]...)
	if _, err := ReadStream(stream); err == nil {
		t.Error("trailing garbage accepted")
	}
}
