// Package wire encodes and decodes BGP-4 UPDATE messages in the RFC 4271
// wire format: the 19-byte marker/length/type header and the UPDATE body
// (withdrawn routes, path attributes, NLRI). The header check accepts
// every RFC 4271 message type, so the stream readers split a capture
// that holds other messages too.
//
// The simulator itself exchanges typed in-memory updates; this codec
// exists so traces can be exported in, and test vectors imported from,
// the real protocol encoding (see Encode/DecodeSimUpdate for the mapping
// used by the trace tooling). It implements the classic subset: IPv4
// NLRI, 2-octet AS numbers, and the mandatory path attributes ORIGIN,
// AS_PATH, and NEXT_HOP.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Message type codes (RFC 4271 §4.1).
const (
	TypeOpen         = 1
	TypeUpdate       = 2
	TypeNotification = 3
	TypeKeepalive    = 4
)

// Protocol limits (RFC 4271).
const (
	HeaderLen = 19
	MaxLen    = 4096
	markerLen = 16
)

// Path attribute type codes (RFC 4271 §5.1).
const (
	AttrOrigin  = 1
	AttrASPath  = 2
	AttrNextHop = 3
)

// ORIGIN values.
const (
	OriginIGP        = 0
	OriginEGP        = 1
	OriginIncomplete = 2
)

// AS_PATH segment types.
const (
	ASSet      = 1
	ASSequence = 2
)

// Attribute flag bits.
const (
	flagOptional   = 0x80
	flagTransitive = 0x40
)

// Errors returned by the decoder.
var (
	ErrShortMessage = errors.New("wire: message truncated")
	ErrBadMarker    = errors.New("wire: header marker is not all-ones")
	ErrBadLength    = errors.New("wire: bad message length")
	ErrBadType      = errors.New("wire: unknown message type")
	ErrMalformed    = errors.New("wire: malformed message body")
)

// Prefix is an IPv4 prefix in NLRI form.
type Prefix struct {
	// Bits is the prefix length (0..32).
	Bits int
	// Addr holds the address bytes; only the first (Bits+7)/8 bytes are
	// significant.
	Addr [4]byte
}

// String renders a.b.c.d/len.
func (p Prefix) String() string {
	return fmt.Sprintf("%d.%d.%d.%d/%d", p.Addr[0], p.Addr[1], p.Addr[2], p.Addr[3], p.Bits)
}

// Update is a decoded BGP UPDATE message.
type Update struct {
	// Withdrawn lists withdrawn prefixes.
	Withdrawn []Prefix
	// Origin is the ORIGIN attribute (OriginIGP unless set otherwise).
	Origin byte
	// ASPath is the AS_PATH as a single AS_SEQUENCE of 2-octet ASNs.
	ASPath []uint16
	// NextHop is the NEXT_HOP attribute.
	NextHop [4]byte
	// NLRI lists announced prefixes.
	NLRI []Prefix
}

// header writes the 19-byte header for a message of the given total
// length and type.
func header(buf []byte, totalLen int, msgType byte) {
	for i := 0; i < markerLen; i++ {
		buf[i] = 0xFF
	}
	binary.BigEndian.PutUint16(buf[16:18], uint16(totalLen))
	buf[18] = msgType
}

// parseHeader validates the header and returns (bodyLen, type).
func parseHeader(b []byte) (int, byte, error) {
	if len(b) < HeaderLen {
		return 0, 0, ErrShortMessage
	}
	for i := 0; i < markerLen; i++ {
		if b[i] != 0xFF {
			return 0, 0, ErrBadMarker
		}
	}
	total := int(binary.BigEndian.Uint16(b[16:18]))
	if total < HeaderLen || total > MaxLen {
		return 0, 0, fmt.Errorf("%w: %d", ErrBadLength, total)
	}
	if total > len(b) {
		return 0, 0, ErrShortMessage
	}
	t := b[18]
	if t < TypeOpen || t > TypeKeepalive {
		return 0, 0, fmt.Errorf("%w: %d", ErrBadType, t)
	}
	return total - HeaderLen, t, nil
}

// prefixWireLen returns the NLRI encoding length of a prefix.
func prefixWireLen(p Prefix) int { return 1 + (p.Bits+7)/8 }

func putPrefix(buf []byte, p Prefix) int {
	buf[0] = byte(p.Bits)
	n := (p.Bits + 7) / 8
	copy(buf[1:1+n], p.Addr[:n])
	return 1 + n
}

func parsePrefixes(b []byte) ([]Prefix, error) {
	var out []Prefix
	for len(b) > 0 {
		bits := int(b[0])
		if bits > 32 {
			return nil, fmt.Errorf("%w: prefix length %d", ErrMalformed, bits)
		}
		n := (bits + 7) / 8
		if len(b) < 1+n {
			return nil, fmt.Errorf("%w: truncated prefix", ErrMalformed)
		}
		var p Prefix
		p.Bits = bits
		copy(p.Addr[:n], b[1:1+n])
		out = append(out, p)
		b = b[1+n:]
	}
	return out, nil
}

// MarshalUpdate encodes an UPDATE message. A pure withdrawal (no NLRI)
// carries no path attributes, per RFC 4271.
func MarshalUpdate(u Update) ([]byte, error) {
	if len(u.ASPath) > 255 {
		return nil, fmt.Errorf("wire: AS_PATH too long (%d)", len(u.ASPath))
	}
	withdrawnLen := 0
	for _, p := range u.Withdrawn {
		if p.Bits > 32 {
			return nil, fmt.Errorf("wire: bad withdrawn prefix %v", p)
		}
		withdrawnLen += prefixWireLen(p)
	}
	nlriLen := 0
	for _, p := range u.NLRI {
		if p.Bits > 32 {
			return nil, fmt.Errorf("wire: bad NLRI prefix %v", p)
		}
		nlriLen += prefixWireLen(p)
	}
	attrsLen := 0
	if nlriLen > 0 {
		// ORIGIN: flags(1)+type(1)+len(1)+value(1)
		attrsLen += 4
		// AS_PATH: flags+type+len + segType(1)+segLen(1)+2*n (empty path
		// omits the segment entirely).
		attrsLen += 3
		if len(u.ASPath) > 0 {
			attrsLen += 2 + 2*len(u.ASPath)
		}
		// NEXT_HOP: flags+type+len+4
		attrsLen += 7
	}
	total := HeaderLen + 2 + withdrawnLen + 2 + attrsLen + nlriLen
	if total > MaxLen {
		return nil, fmt.Errorf("wire: UPDATE would be %d bytes (max %d)", total, MaxLen)
	}
	buf := make([]byte, total)
	header(buf, total, TypeUpdate)
	b := buf[HeaderLen:]
	binary.BigEndian.PutUint16(b[0:2], uint16(withdrawnLen))
	off := 2
	for _, p := range u.Withdrawn {
		off += putPrefix(b[off:], p)
	}
	binary.BigEndian.PutUint16(b[off:off+2], uint16(attrsLen))
	off += 2
	if nlriLen > 0 {
		// ORIGIN.
		b[off] = flagTransitive
		b[off+1] = AttrOrigin
		b[off+2] = 1
		b[off+3] = u.Origin
		off += 4
		// AS_PATH.
		b[off] = flagTransitive
		b[off+1] = AttrASPath
		if len(u.ASPath) == 0 {
			b[off+2] = 0
			off += 3
		} else {
			segLen := 2 + 2*len(u.ASPath)
			b[off+2] = byte(segLen)
			off += 3
			b[off] = ASSequence
			b[off+1] = byte(len(u.ASPath))
			off += 2
			for _, as := range u.ASPath {
				binary.BigEndian.PutUint16(b[off:off+2], as)
				off += 2
			}
		}
		// NEXT_HOP.
		b[off] = flagTransitive
		b[off+1] = AttrNextHop
		b[off+2] = 4
		copy(b[off+3:off+7], u.NextHop[:])
		off += 7
	}
	for _, p := range u.NLRI {
		off += putPrefix(b[off:], p)
	}
	return buf, nil
}

// UnmarshalUpdate decodes an UPDATE message. An UPDATE without NLRI
// has its path attributes checked and then dropped, so it decodes to
// what MarshalUpdate writes for it.
func UnmarshalUpdate(msg []byte) (Update, error) {
	bodyLen, t, err := parseHeader(msg)
	if err != nil {
		return Update{}, err
	}
	if t != TypeUpdate {
		return Update{}, fmt.Errorf("%w: got type %d, want UPDATE", ErrBadType, t)
	}
	b := msg[HeaderLen : HeaderLen+bodyLen]
	var u Update
	u.Origin = OriginIGP
	if len(b) < 2 {
		return Update{}, fmt.Errorf("%w: missing withdrawn length", ErrMalformed)
	}
	withdrawnLen := int(binary.BigEndian.Uint16(b[0:2]))
	b = b[2:]
	if len(b) < withdrawnLen {
		return Update{}, fmt.Errorf("%w: truncated withdrawn routes", ErrMalformed)
	}
	u.Withdrawn, err = parsePrefixes(b[:withdrawnLen])
	if err != nil {
		return Update{}, err
	}
	b = b[withdrawnLen:]
	if len(b) < 2 {
		return Update{}, fmt.Errorf("%w: missing attributes length", ErrMalformed)
	}
	attrsLen := int(binary.BigEndian.Uint16(b[0:2]))
	b = b[2:]
	if len(b) < attrsLen {
		return Update{}, fmt.Errorf("%w: truncated path attributes", ErrMalformed)
	}
	attrs := b[:attrsLen]
	nlri := b[attrsLen:]
	for len(attrs) > 0 {
		if len(attrs) < 3 {
			return Update{}, fmt.Errorf("%w: truncated attribute header", ErrMalformed)
		}
		flags := attrs[0]
		typ := attrs[1]
		var alen, hdr int
		if flags&0x10 != 0 { // extended length
			if len(attrs) < 4 {
				return Update{}, fmt.Errorf("%w: truncated extended attribute", ErrMalformed)
			}
			alen = int(binary.BigEndian.Uint16(attrs[2:4]))
			hdr = 4
		} else {
			alen = int(attrs[2])
			hdr = 3
		}
		if len(attrs) < hdr+alen {
			return Update{}, fmt.Errorf("%w: truncated attribute body", ErrMalformed)
		}
		val := attrs[hdr : hdr+alen]
		switch typ {
		case AttrOrigin:
			if alen != 1 {
				return Update{}, fmt.Errorf("%w: ORIGIN length %d", ErrMalformed, alen)
			}
			u.Origin = val[0]
		case AttrASPath:
			u.ASPath, err = parseASPath(val)
			if err != nil {
				return Update{}, err
			}
		case AttrNextHop:
			if alen != 4 {
				return Update{}, fmt.Errorf("%w: NEXT_HOP length %d", ErrMalformed, alen)
			}
			copy(u.NextHop[:], val)
		default:
			// Unknown attributes are skipped (the decoder is tolerant).
		}
		attrs = attrs[hdr+alen:]
	}
	u.NLRI, err = parsePrefixes(nlri)
	if err != nil {
		return Update{}, err
	}
	if len(u.NLRI) == 0 {
		// The attributes describe the announced routes: without NLRI
		// they were validated above but carry nothing, and MarshalUpdate
		// writes none.
		u.Origin, u.ASPath, u.NextHop = OriginIGP, nil, [4]byte{}
	}
	return u, nil
}

// parseASPath flattens AS_SEQUENCE segments (AS_SET members are appended
// in order as well; the simulator never produces sets).
func parseASPath(b []byte) ([]uint16, error) {
	var out []uint16
	for len(b) > 0 {
		if len(b) < 2 {
			return nil, fmt.Errorf("%w: truncated AS_PATH segment", ErrMalformed)
		}
		segType := b[0]
		n := int(b[1])
		if segType != ASSet && segType != ASSequence {
			return nil, fmt.Errorf("%w: AS_PATH segment type %d", ErrMalformed, segType)
		}
		if len(b) < 2+2*n {
			return nil, fmt.Errorf("%w: truncated AS_PATH members", ErrMalformed)
		}
		for i := 0; i < n; i++ {
			out = append(out, binary.BigEndian.Uint16(b[2+2*i:4+2*i]))
		}
		b = b[2+2*n:]
	}
	return out, nil
}
