package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

// message is a message of type typ with the given body, its header
// written out byte by byte.
func message(typ byte, body ...byte) []byte {
	n := HeaderLen + len(body)
	return append(append(bytes.Repeat([]byte{0xFF}, 16), byte(n>>8), byte(n), typ), body...)
}

// keepalive is a KEEPALIVE message: the bare 19-byte header, type 4.
func keepalive() []byte { return message(TypeKeepalive) }

func TestUpdateAnnouncementRoundTrip(t *testing.T) {
	in := Update{
		Origin:  OriginIGP,
		ASPath:  []uint16{5, 6, 4, 0},
		NextHop: [4]byte{10, 255, 0, 5},
		NLRI:    []Prefix{{Bits: 24, Addr: [4]byte{10, 0, 0, 0}}},
	}
	msg, err := MarshalUpdate(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalUpdate(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.ASPath) != 4 || out.ASPath[0] != 5 || out.ASPath[3] != 0 {
		t.Errorf("ASPath = %v", out.ASPath)
	}
	if out.NextHop != in.NextHop || out.Origin != in.Origin {
		t.Errorf("attributes: %+v", out)
	}
	if len(out.NLRI) != 1 || out.NLRI[0] != in.NLRI[0] {
		t.Errorf("NLRI = %v", out.NLRI)
	}
}

func TestUpdateWithdrawalRoundTrip(t *testing.T) {
	in := Update{Withdrawn: []Prefix{{Bits: 16, Addr: [4]byte{10, 7, 0, 0}}}}
	msg, err := MarshalUpdate(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalUpdate(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Withdrawn) != 1 || out.Withdrawn[0].Bits != 16 {
		t.Errorf("withdrawn = %v", out.Withdrawn)
	}
	if len(out.NLRI) != 0 {
		t.Errorf("unexpected NLRI: %v", out.NLRI)
	}
	// A pure withdrawal carries no attributes: 19 + 2 + 3 + 2 bytes.
	if len(msg) != HeaderLen+2+3+2 {
		t.Errorf("withdrawal length = %d", len(msg))
	}
}

func TestPrefixPartialBytes(t *testing.T) {
	// A /20 prefix occupies 3 address bytes on the wire.
	in := Update{NLRI: []Prefix{{Bits: 20, Addr: [4]byte{192, 168, 0xF0, 0}}},
		ASPath: []uint16{1}, NextHop: [4]byte{1, 2, 3, 4}}
	msg, err := MarshalUpdate(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalUpdate(msg)
	if err != nil {
		t.Fatal(err)
	}
	if out.NLRI[0].Bits != 20 || out.NLRI[0].Addr[3] != 0 {
		t.Errorf("NLRI = %v", out.NLRI)
	}
}

func TestHeaderValidation(t *testing.T) {
	good := keepalive()
	if bodyLen, typ, err := parseHeader(good); err != nil || bodyLen != 0 || typ != TypeKeepalive {
		t.Fatalf("keepalive header: body %d, type %d, %v", bodyLen, typ, err)
	}

	short := good[:10]
	if _, _, err := parseHeader(short); !errors.Is(err, ErrShortMessage) {
		t.Errorf("short message: %v", err)
	}

	badMarker := append([]byte(nil), good...)
	badMarker[3] = 0
	if _, _, err := parseHeader(badMarker); !errors.Is(err, ErrBadMarker) {
		t.Errorf("bad marker: %v", err)
	}

	badLen := append([]byte(nil), good...)
	badLen[16], badLen[17] = 0, 5 // length 5 < 19
	if _, _, err := parseHeader(badLen); !errors.Is(err, ErrBadLength) {
		t.Errorf("bad length: %v", err)
	}

	badType := append([]byte(nil), good...)
	badType[18] = 9
	if _, _, err := parseHeader(badType); !errors.Is(err, ErrBadType) {
		t.Errorf("bad type: %v", err)
	}

	truncated := append([]byte(nil), good...)
	truncated[17] = 200 // claims more bytes than present
	if _, _, err := parseHeader(truncated); !errors.Is(err, ErrShortMessage) {
		t.Errorf("truncated: %v", err)
	}
}

func TestWrongTypeRejected(t *testing.T) {
	if _, err := UnmarshalUpdate(keepalive()); !errors.Is(err, ErrBadType) {
		t.Errorf("UnmarshalUpdate on a KEEPALIVE: %v, want ErrBadType", err)
	}
}

func TestMalformedUpdates(t *testing.T) {
	mk := func(body []byte) []byte {
		msg := make([]byte, HeaderLen+len(body))
		header(msg, len(msg), TypeUpdate)
		copy(msg[HeaderLen:], body)
		return msg
	}
	cases := map[string][]byte{
		"empty body":           {},
		"withdrawn overrun":    {0, 9},
		"missing attrs length": {0, 0},
		"attrs overrun":        {0, 0, 0, 9},
		"bad prefix bits":      {0, 2, 40, 1, 0, 0},
		"truncated attr":       {0, 0, 0, 2, 0x40, AttrOrigin},
		"origin wrong length":  {0, 0, 0, 5, 0x40, AttrOrigin, 2, 1, 1},
		"nexthop wrong length": {0, 0, 0, 4, 0x40, AttrNextHop, 1, 9},
		"aspath bad segment":   {0, 0, 0, 6, 0x40, AttrASPath, 3, 7, 0, 0},
		"aspath truncated":     {0, 0, 0, 7, 0x40, AttrASPath, 4, ASSequence, 3, 0, 1},
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := UnmarshalUpdate(mk(body)); err == nil {
				t.Errorf("%s accepted", name)
			}
		})
	}
}

func TestExtendedLengthAttribute(t *testing.T) {
	// Hand-build an update with an extended-length ORIGIN attribute.
	body := []byte{
		0, 0, // no withdrawn
		0, 5, // attrs length
		flagTransitive | 0x10, AttrOrigin, 0, 1, OriginEGP,
	}
	msg := make([]byte, HeaderLen+len(body))
	header(msg, len(msg), TypeUpdate)
	copy(msg[HeaderLen:], body)
	u, err := UnmarshalUpdate(msg)
	if err != nil {
		t.Fatal(err)
	}
	if u.Origin != OriginEGP {
		t.Errorf("origin = %d", u.Origin)
	}
}

func TestUnknownAttributeSkipped(t *testing.T) {
	body := []byte{
		0, 0,
		0, 4,
		flagOptional | flagTransitive, 99, 1, 42, // unknown attribute
	}
	msg := make([]byte, HeaderLen+len(body))
	header(msg, len(msg), TypeUpdate)
	copy(msg[HeaderLen:], body)
	if _, err := UnmarshalUpdate(msg); err != nil {
		t.Errorf("unknown attribute rejected: %v", err)
	}
}

func TestMarshalUpdateErrors(t *testing.T) {
	if _, err := MarshalUpdate(Update{NLRI: []Prefix{{Bits: 99}}}); err == nil {
		t.Error("bad NLRI bits accepted")
	}
	if _, err := MarshalUpdate(Update{Withdrawn: []Prefix{{Bits: 99}}}); err == nil {
		t.Error("bad withdrawn bits accepted")
	}
	long := make([]uint16, 300)
	if _, err := MarshalUpdate(Update{ASPath: long, NLRI: []Prefix{{Bits: 8, Addr: [4]byte{10}}}}); err == nil {
		t.Error("oversized AS_PATH accepted")
	}
}

// TestPropertyUpdateRoundTrip round-trips randomly generated updates.
func TestPropertyUpdateRoundTrip(t *testing.T) {
	f := func(pathSeed []uint16, addr [4]byte, bits uint8, withdraw bool) bool {
		if len(pathSeed) > 100 {
			pathSeed = pathSeed[:100]
		}
		p := Prefix{Bits: int(bits % 33), Addr: addr}
		// Zero the insignificant bytes, as a real speaker would.
		for i := (p.Bits + 7) / 8; i < 4; i++ {
			p.Addr[i] = 0
		}
		var in Update
		if withdraw {
			in.Withdrawn = []Prefix{p}
		} else {
			in.ASPath = pathSeed
			in.NextHop = [4]byte{1, 2, 3, 4}
			in.NLRI = []Prefix{p}
		}
		msg, err := MarshalUpdate(in)
		if err != nil {
			return false
		}
		out, err := UnmarshalUpdate(msg)
		if err != nil {
			return false
		}
		if withdraw {
			return len(out.Withdrawn) == 1 && out.Withdrawn[0] == p && len(out.NLRI) == 0
		}
		if len(out.NLRI) != 1 || out.NLRI[0] != p || len(out.ASPath) != len(pathSeed) {
			return false
		}
		for i := range pathSeed {
			if out.ASPath[i] != pathSeed[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPrefixString(t *testing.T) {
	p := Prefix{Bits: 24, Addr: [4]byte{10, 1, 2, 0}}
	if p.String() != "10.1.2.0/24" {
		t.Errorf("String = %q", p.String())
	}
}
