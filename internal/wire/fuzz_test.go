package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzWireDecode throws arbitrary bytes at the RFC 4271 decoder: no
// input may panic, any UPDATE that decodes must survive a
// marshal/unmarshal round trip unchanged (the decoder and encoder agree
// on the canonical form), and a simulator update read from it carries
// each AS as the same, non-negative node id.
func FuzzWireDecode(f *testing.F) {
	// Seed with one well-formed message of each type plus corrupt
	// variants; the checked-in corpus under testdata/fuzz extends these.
	upd, err := MarshalUpdate(Update{
		ASPath:  []uint16{1, 2, 3},
		NextHop: [4]byte{10, 0, 0, 1},
		NLRI:    []Prefix{SimPrefix(7)},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(upd)
	f.Add(message(TypeOpen, 4, 0xfd, 0xe8, 0, 90, 10, 0, 0, 1, 0)) // AS 65000, hold 90 s
	f.Add(message(TypeNotification, 6, 2, 'b', 'y', 'e'))
	f.Add(keepalive())
	f.Add(upd[:HeaderLen-1]) // truncated header
	short := bytes.Clone(upd)
	short[16], short[17] = 0, 1 // length below HeaderLen
	f.Add(short)

	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := UnmarshalUpdate(data)
		if err != nil {
			return
		}
		re, err := MarshalUpdate(u)
		if err != nil {
			// Decodable but not re-encodable updates would strand trace
			// exports; the classic subset must round-trip.
			t.Fatalf("decoded update does not re-marshal: %v", err)
		}
		u2, err := UnmarshalUpdate(re)
		if err != nil {
			t.Fatalf("re-marshaled update does not decode: %v", err)
		}
		if !reflect.DeepEqual(u, u2) {
			t.Fatalf("round trip changed the update:\n first %+v\nsecond %+v", u, u2)
		}
		sim, err := DecodeSimUpdate(data)
		if err != nil || sim.Withdraw {
			return
		}
		if len(sim.Path) != len(u.ASPath) {
			t.Fatalf("simulator path %v for AS_PATH %v", sim.Path, u.ASPath)
		}
		for i, as := range u.ASPath {
			if sim.Path[i] < 0 || int(sim.Path[i]) != int(as) {
				t.Fatalf("AS %d read as node %d", as, sim.Path[i])
			}
		}
	})
}
