package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"bgploop/internal/trace"
)

// MRT (RFC 6396) framing for BGP4MP_MESSAGE records — the format
// RouteViews and RIPE RIS publish update traces in. Simulation traces
// exported this way can be inspected with standard MRT tooling.
//
// Virtual timestamps are encoded as seconds/microseconds since the
// simulation epoch (t = 0), so record times equal the virtual instants.

// MRT record constants (RFC 6396).
const (
	mrtTypeBGP4MP            = 16
	mrtSubtypeMessage        = 1 // BGP4MP_MESSAGE
	mrtHeaderLen             = 12
	bgp4mpHeaderLen          = 16 // 2-octet ASNs, IPv4 addresses
	mrtAFIPv4         uint16 = 1
)

// MRTRecord is one decoded BGP4MP_MESSAGE record.
type MRTRecord struct {
	// Timestamp is the virtual instant of the event.
	Timestamp time.Duration
	// PeerAS is the sending AS; LocalAS the receiving AS.
	PeerAS, LocalAS uint16
	// Message is the embedded BGP message (header included).
	Message []byte
}

// MarshalMRT frames a BGP message as a BGP4MP_MESSAGE record.
func MarshalMRT(rec MRTRecord) ([]byte, error) {
	if len(rec.Message) < HeaderLen {
		return nil, fmt.Errorf("wire: embedded message too short (%d bytes)", len(rec.Message))
	}
	bodyLen := bgp4mpHeaderLen + len(rec.Message)
	buf := make([]byte, mrtHeaderLen+bodyLen)
	secs := uint32(rec.Timestamp / time.Second)
	binary.BigEndian.PutUint32(buf[0:4], secs)
	binary.BigEndian.PutUint16(buf[4:6], mrtTypeBGP4MP)
	binary.BigEndian.PutUint16(buf[6:8], mrtSubtypeMessage)
	binary.BigEndian.PutUint32(buf[8:12], uint32(bodyLen))
	b := buf[mrtHeaderLen:]
	binary.BigEndian.PutUint16(b[0:2], rec.PeerAS)
	binary.BigEndian.PutUint16(b[2:4], rec.LocalAS)
	binary.BigEndian.PutUint16(b[4:6], 0) // interface index
	binary.BigEndian.PutUint16(b[6:8], mrtAFIPv4)
	// Peer and local IPs: synthesised from the AS numbers.
	b[8], b[9] = 10, 254
	binary.BigEndian.PutUint16(b[10:12], rec.PeerAS)
	b[12], b[13] = 10, 254
	binary.BigEndian.PutUint16(b[14:16], rec.LocalAS)
	copy(b[bgp4mpHeaderLen:], rec.Message)
	return buf, nil
}

// UnmarshalMRT decodes one record from the front of data and returns the
// record plus the remaining bytes.
func UnmarshalMRT(data []byte) (MRTRecord, []byte, error) {
	if len(data) < mrtHeaderLen {
		return MRTRecord{}, nil, ErrShortMessage
	}
	secs := binary.BigEndian.Uint32(data[0:4])
	typ := binary.BigEndian.Uint16(data[4:6])
	sub := binary.BigEndian.Uint16(data[6:8])
	bodyLen := int(binary.BigEndian.Uint32(data[8:12]))
	if typ != mrtTypeBGP4MP || sub != mrtSubtypeMessage {
		return MRTRecord{}, nil, fmt.Errorf("%w: MRT type/subtype %d/%d", ErrBadType, typ, sub)
	}
	if len(data) < mrtHeaderLen+bodyLen {
		return MRTRecord{}, nil, ErrShortMessage
	}
	if bodyLen < bgp4mpHeaderLen+HeaderLen {
		return MRTRecord{}, nil, fmt.Errorf("%w: BGP4MP body %d bytes", ErrMalformed, bodyLen)
	}
	b := data[mrtHeaderLen : mrtHeaderLen+bodyLen]
	rec := MRTRecord{
		Timestamp: time.Duration(secs) * time.Second,
		PeerAS:    binary.BigEndian.Uint16(b[0:2]),
		LocalAS:   binary.BigEndian.Uint16(b[2:4]),
		Message:   append([]byte(nil), b[bgp4mpHeaderLen:]...),
	}
	if _, _, err := parseHeader(rec.Message); err != nil {
		return MRTRecord{}, nil, err
	}
	return rec, data[mrtHeaderLen+bodyLen:], nil
}

// DumpTraceMRT writes every update event of a protocol trace as MRT
// BGP4MP_MESSAGE records and returns the number of records written.
func DumpTraceMRT(w io.Writer, events []trace.Event) (int, error) {
	n := 0
	for _, e := range events {
		if e.Kind != trace.KindAnnounce && e.Kind != trace.KindWithdraw {
			continue
		}
		up := traceEventToUpdate(e)
		msg, err := EncodeSimUpdate(e.Node, up)
		if err != nil {
			return n, fmt.Errorf("wire: event %d: %w", n, err)
		}
		if int(e.Node) > 0xFFFF || int(e.Peer) > 0xFFFF {
			return n, fmt.Errorf("wire: AS beyond 2-octet range in event %d", n)
		}
		rec, err := MarshalMRT(MRTRecord{
			Timestamp: e.At,
			PeerAS:    uint16(e.Node),
			LocalAS:   uint16(e.Peer),
			Message:   msg,
		})
		if err != nil {
			return n, err
		}
		if _, err := w.Write(rec); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// ReadMRTStream splits a concatenated MRT stream into records.
func ReadMRTStream(data []byte) ([]MRTRecord, error) {
	var out []MRTRecord
	for len(data) > 0 {
		rec, rest, err := UnmarshalMRT(data)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
		data = rest
	}
	return out, nil
}
