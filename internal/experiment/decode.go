package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"

	"bgploop/internal/dataplane"
	"bgploop/internal/loopanalysis"
	"bgploop/internal/netsim"
	"bgploop/internal/topology"
)

// resultReader is DecodeResult's one-pass reader over the JSON that
// EncodeResult writes. Each decoded type has one switch over its field
// names. A key that is not one of them, or a value that is not of the
// field's JSON type, is an error, so whatever the reader returns is what
// encoding/json makes of the same bytes.
type resultReader struct {
	data []byte
	i    int
	// nodes backs every Loop.Nodes of the result. Each list is carved from
	// it with its capacity capped at its length.
	nodes []topology.Node
}

func (d *resultReader) fail(msg string) error {
	return fmt.Errorf("%s at offset %d", msg, d.i)
}

// next skips whitespace and returns the next byte, 0 at the end of input.
func (d *resultReader) next() byte {
	for ; d.i < len(d.data); d.i++ {
		if c := d.data[d.i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// eat consumes c if it is the next non-whitespace byte.
func (d *resultReader) eat(c byte) bool {
	if d.next() == c {
		d.i++
		return true
	}
	return false
}

// literal consumes lit (null, true or false) if it comes next.
func (d *resultReader) literal(lit string) bool {
	d.next()
	if len(d.data)-d.i >= len(lit) && string(d.data[d.i:d.i+len(lit)]) == lit {
		d.i += len(lit)
		return true
	}
	return false
}

// object reads one JSON object, calling field with each key once the
// reader stands on its value. field reads the value or refuses the key.
func (d *resultReader) object(field func(key []byte) error) error {
	if !d.eat('{') {
		return d.fail("want an object")
	}
	if d.eat('}') {
		return nil
	}
	for {
		key, err := d.key()
		if err != nil {
			return err
		}
		if !d.eat(':') {
			return d.fail("want ':'")
		}
		if err := field(key); err != nil {
			return err
		}
		switch d.next() {
		case ',':
			d.i++
		case '}':
			d.i++
			return nil
		default:
			return d.fail("want ',' or '}'")
		}
	}
}

func (d *resultReader) unknown(key []byte) error {
	return d.fail(fmt.Sprintf("unknown key %q", key))
}

// array reads one JSON array, calling elem for each element.
func (d *resultReader) array(elem func() error) error {
	if !d.eat('[') {
		return d.fail("want an array")
	}
	if d.eat(']') {
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch d.next() {
		case ',':
			d.i++
		case ']':
			d.i++
			return nil
		default:
			return d.fail("want ',' or ']'")
		}
	}
}

// list reads a JSON array into *p, or null into nil. encoding/json
// decodes a second array for the same list over the old elements, field
// by field, so a list that already holds elements refuses another.
func list[T any](d *resultReader, p *[]T, elem func(*T) error) error {
	if d.literal("null") {
		*p = nil
		return nil
	}
	if cap(*p) > 0 {
		return d.fail("repeated list")
	}
	s := []T{}
	err := d.array(func() error {
		var zero T
		s = append(s, zero)
		return elem(&s[len(s)-1])
	})
	*p = s
	return err
}

// stringToken reads a JSON string. When plain, tok is the bytes between
// the quotes: no escape and nothing above 0x7f, so they are the string.
// Otherwise tok is the whole quoted token, for unquote.
func (d *resultReader) stringToken() (tok []byte, plain bool, err error) {
	if d.next() != '"' {
		return nil, false, d.fail("want a string")
	}
	start := d.i
	plain = true
	for i := start + 1; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.i = i + 1
			if plain {
				return d.data[start+1 : i], true, nil
			}
			return d.data[start:d.i], false, nil
		case c == '\\':
			plain = false
			i++ // the escaped byte cannot end the string
		case c < 0x20:
			return nil, false, d.fail("control character in string")
		case c >= 0x80:
			plain = false
		}
	}
	return nil, false, d.fail("unterminated string")
}

// unquote hands one string token to encoding/json, so escapes and invalid
// UTF-8 come out exactly as json.Unmarshal would have them.
func (d *resultReader) unquote(tok []byte) (string, error) {
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		return "", d.fail(err.Error())
	}
	return s, nil
}

func (d *resultReader) key() ([]byte, error) {
	tok, plain, err := d.stringToken()
	if err != nil || plain {
		return tok, err
	}
	s, err := d.unquote(tok)
	return []byte(s), err
}

func (d *resultReader) str(p *string) error {
	tok, plain, err := d.stringToken()
	switch {
	case err != nil:
		return err
	case plain:
		*p = string(tok)
		return nil
	}
	*p, err = d.unquote(tok)
	return err
}

func (d *resultReader) bool(p *bool) error {
	switch {
	case d.literal("true"):
		*p = true
	case d.literal("false"):
		*p = false
	default:
		return d.fail("want a boolean")
	}
	return nil
}

// digits advances i past decimal digits and reports how many there were.
func (d *resultReader) digits(i *int) int {
	start := *i
	for *i < len(d.data) && '0' <= d.data[*i] && d.data[*i] <= '9' {
		*i++
	}
	return *i - start
}

// number reads a JSON number token.
func (d *resultReader) number() ([]byte, error) {
	d.next()
	start, i := d.i, d.i
	if i < len(d.data) && d.data[i] == '-' {
		i++
	}
	switch {
	case i < len(d.data) && d.data[i] == '0':
		i++
	case d.digits(&i) == 0:
		return nil, d.fail("want a number")
	}
	if i < len(d.data) && d.data[i] == '.' {
		i++
		if d.digits(&i) == 0 {
			return nil, d.fail("want a fraction")
		}
	}
	if i < len(d.data) && (d.data[i] == 'e' || d.data[i] == 'E') {
		i++
		if i < len(d.data) && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		if d.digits(&i) == 0 {
			return nil, d.fail("want an exponent")
		}
	}
	d.i = i
	return d.data[start:i], nil
}

// integer reads an integer token in place as a sign and a magnitude.
// Fractions, exponents and magnitudes past uint64 are errors, as they are
// for encoding/json's strconv.ParseInt and ParseUint.
func (d *resultReader) integer() (neg bool, u uint64, err error) {
	d.next()
	i := d.i
	if i < len(d.data) && d.data[i] == '-' {
		neg = true
		i++
	}
	start := i
	for ; i < len(d.data); i++ {
		c := uint64(d.data[i] - '0')
		if c > 9 {
			break
		}
		if u > math.MaxUint64/10 || (u == math.MaxUint64/10 && c > math.MaxUint64%10) {
			return false, 0, d.fail("integer overflow")
		}
		u = u*10 + c
	}
	switch {
	case i == start:
		return false, 0, d.fail("want an integer")
	case i-start > 1 && d.data[start] == '0':
		return false, 0, d.fail("leading zero")
	case i < len(d.data) && (d.data[i] == '.' || d.data[i] == 'e' || d.data[i] == 'E'):
		return false, 0, d.fail("want an integer")
	}
	d.i = i
	return neg, u, nil
}

func (d *resultReader) i64(p *int64) error {
	neg, u, err := d.integer()
	switch {
	case err != nil:
		return err
	case neg && u <= 1<<63:
		*p = -int64(u)
	case !neg && u <= math.MaxInt64:
		*p = int64(u)
	default:
		return d.fail("integer overflows int64")
	}
	return nil
}

// u64 refuses every minus sign, -0 included, as strconv.ParseUint does.
func (d *resultReader) u64(p *uint64) error {
	neg, u, err := d.integer()
	switch {
	case err != nil:
		return err
	case neg:
		return d.fail("negative unsigned integer")
	}
	*p = u
	return nil
}

func (d *resultReader) int(p *int) error {
	var v int64
	if err := d.i64(&v); err != nil {
		return err
	}
	if int64(int(v)) != v {
		return d.fail("integer overflows int")
	}
	*p = int(v)
	return nil
}

func (d *resultReader) dur(p *time.Duration) error {
	return d.i64((*int64)(p))
}

func (d *resultReader) f64(p *float64) error {
	tok, err := d.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return d.fail("float out of range")
	}
	*p = v
	return nil
}

// nodeList carves a Loop.Nodes list from the shared backing array.
func (d *resultReader) nodeList(p *[]topology.Node) error {
	if d.literal("null") {
		*p = nil
		return nil
	}
	if cap(*p) > 0 {
		return d.fail("repeated list")
	}
	start := len(d.nodes)
	err := d.array(func() error {
		var v int64
		if err := d.i64(&v); err != nil {
			return err
		}
		// encoding/json's range for an int32, None and below included.
		if int64(topology.Node(v)) != v {
			return d.fail("integer overflows int32")
		}
		d.nodes = append(d.nodes, topology.Node(v))
		return nil
	})
	*p = d.nodes[start:len(d.nodes):len(d.nodes)]
	return err
}

// nodeHint counts the node ids in the Loop.Nodes lists as EncodeResult
// spells them, to size the backing array once. Other spellings only make
// the hint wrong, never the result.
func nodeHint(data []byte) int {
	const key = `"Nodes":`
	n := 0
	for off := 0; ; {
		// '[' is rare in the encoding, '"' is not: find lists, then keys.
		i := bytes.IndexByte(data[off:], '[')
		if i < 0 {
			return n
		}
		i += off + 1
		end := bytes.IndexByte(data[i:], ']')
		if end < 0 {
			return n
		}
		if end > 0 && bytes.HasSuffix(data[:i-1], []byte(key)) {
			n += 1 + bytes.Count(data[i:i+end], []byte{','})
		}
		off = i
	}
}

func (d *resultReader) result(r *Result) error {
	return d.object(func(key []byte) error {
		switch string(key) {
		case "Topology":
			return d.str(&r.Topology)
		case "Nodes":
			return d.int(&r.Nodes)
		case "Event":
			return d.int((*int)(&r.Event))
		case "Plan":
			return d.str(&r.Plan)
		case "Enhancement":
			return d.str(&r.Enhancement)
		case "MRAI":
			return d.dur(&r.MRAI)
		case "Seed":
			return d.i64(&r.Seed)
		case "FailAt":
			return d.dur(&r.FailAt)
		case "InitialConvergence":
			return d.dur(&r.InitialConvergence)
		case "ConvergenceTime":
			return d.dur(&r.ConvergenceTime)
		case "Replay":
			return d.replay(&r.Replay)
		case "LoopingDuration":
			return d.dur(&r.LoopingDuration)
		case "LoopingRatio":
			return d.f64(&r.LoopingRatio)
		case "TTLExhaustions":
			return d.int(&r.TTLExhaustions)
		case "PacketsSent":
			return d.int(&r.PacketsSent)
		case "Loops":
			return list(d, &r.Loops, d.loop)
		case "LoopStats":
			return d.loopStats(&r.LoopStats)
		case "UpdatesSent":
			return d.int(&r.UpdatesSent)
		case "Announcements":
			return d.int(&r.Announcements)
		case "Withdrawals":
			return d.int(&r.Withdrawals)
		case "BestChanges":
			return d.int(&r.BestChanges)
		case "SSLDConversions":
			return d.int(&r.SSLDConversions)
		case "GhostFlushes":
			return d.int(&r.GhostFlushes)
		case "AssertionInvalidations":
			return d.int(&r.AssertionInvalidations)
		case "RoutesSuppressed":
			return d.int(&r.RoutesSuppressed)
		case "RoutesReused":
			return d.int(&r.RoutesReused)
		case "FIBChanges":
			return d.int(&r.FIBChanges)
		case "EventsExecuted":
			return d.u64(&r.EventsExecuted)
		case "Net":
			return d.netStats(&r.Net)
		case "OpensSent":
			return d.int(&r.OpensSent)
		case "KeepalivesSent":
			return d.int(&r.KeepalivesSent)
		case "KeepalivesSuppressed":
			return d.int(&r.KeepalivesSuppressed)
		case "HoldExpiries":
			return d.int(&r.HoldExpiries)
		case "SessionsEstablished":
			return d.int(&r.SessionsEstablished)
		case "Phases":
			return list(d, &r.Phases, d.phase)
		case "Trace":
			if !d.literal("null") {
				return d.fail("a trace is never encoded")
			}
			return nil
		case "Recovery":
			if d.literal("null") {
				r.Recovery = nil
				return nil
			}
			// A repeated key merges into the first one's value, as it
			// does in encoding/json.
			if r.Recovery == nil {
				r.Recovery = &Recovery{}
			}
			return d.recovery(r.Recovery)
		}
		return d.unknown(key)
	})
}

func (d *resultReader) phase(p *PhaseResult) error {
	return d.object(func(key []byte) error {
		switch string(key) {
		case "Name":
			return d.str(&p.Name)
		case "Role":
			return d.str(&p.Role)
		case "InjectAt":
			return d.dur(&p.InjectAt)
		case "End":
			return d.dur(&p.End)
		case "ConvergenceTime":
			return d.dur(&p.ConvergenceTime)
		case "Replay":
			return d.replay(&p.Replay)
		case "LoopingDuration":
			return d.dur(&p.LoopingDuration)
		case "LoopingRatio":
			return d.f64(&p.LoopingRatio)
		case "TTLExhaustions":
			return d.int(&p.TTLExhaustions)
		case "PacketsSent":
			return d.int(&p.PacketsSent)
		case "Loops":
			return list(d, &p.Loops, d.loop)
		case "LoopStats":
			return d.loopStats(&p.LoopStats)
		case "EventsExecuted":
			return d.u64(&p.EventsExecuted)
		}
		return d.unknown(key)
	})
}

func (d *resultReader) recovery(r *Recovery) error {
	return d.object(func(key []byte) error {
		switch string(key) {
		case "RestoreAt":
			return d.dur(&r.RestoreAt)
		case "ConvergenceTime":
			return d.dur(&r.ConvergenceTime)
		case "Replay":
			return d.replay(&r.Replay)
		case "LoopingDuration":
			return d.dur(&r.LoopingDuration)
		case "LoopingRatio":
			return d.f64(&r.LoopingRatio)
		case "TTLExhaustions":
			return d.int(&r.TTLExhaustions)
		case "Loops":
			return list(d, &r.Loops, d.loop)
		}
		return d.unknown(key)
	})
}

func (d *resultReader) replay(r *dataplane.ReplayResult) error {
	return d.object(func(key []byte) error {
		switch string(key) {
		case "Sent":
			return d.int(&r.Sent)
		case "Delivered":
			return d.int(&r.Delivered)
		case "NoRoute":
			return d.int(&r.NoRoute)
		case "TTLExhausted":
			return d.int(&r.TTLExhausted)
		case "LoopEncounters":
			return d.int(&r.LoopEncounters)
		case "DeliveredAfterLoop":
			return d.int(&r.DeliveredAfterLoop)
		case "FirstExhaustion":
			return d.dur(&r.FirstExhaustion)
		case "LastExhaustion":
			return d.dur(&r.LastExhaustion)
		case "TotalHops":
			return d.int(&r.TotalHops)
		case "DeliveredHops":
			return d.hops(&r.DeliveredHops)
		case "EscapedHops":
			return d.hops(&r.EscapedHops)
		}
		return d.unknown(key)
	})
}

func (d *resultReader) hops(h *dataplane.HopStats) error {
	return d.object(func(key []byte) error {
		switch string(key) {
		case "Count":
			return d.int(&h.Count)
		case "Total":
			return d.int(&h.Total)
		case "Max":
			return d.int(&h.Max)
		}
		return d.unknown(key)
	})
}

func (d *resultReader) loop(l *loopanalysis.Loop) error {
	return d.object(func(key []byte) error {
		switch string(key) {
		case "Nodes":
			return d.nodeList(&l.Nodes)
		case "Start":
			return d.dur(&l.Start)
		case "End":
			return d.dur(&l.End)
		case "Resolved":
			return d.bool(&l.Resolved)
		}
		return d.unknown(key)
	})
}

func (d *resultReader) loopStats(s *loopanalysis.Stats) error {
	return d.object(func(key []byte) error {
		switch string(key) {
		case "Count":
			return d.int(&s.Count)
		case "MaxSize":
			return d.int(&s.MaxSize)
		case "MaxDuration":
			return d.dur(&s.MaxDuration)
		case "TotalLoopTime":
			return d.dur(&s.TotalLoopTime)
		case "SpanStart":
			return d.dur(&s.SpanStart)
		case "SpanEnd":
			return d.dur(&s.SpanEnd)
		}
		return d.unknown(key)
	})
}

func (d *resultReader) netStats(s *netsim.Stats) error {
	return d.object(func(key []byte) error {
		switch string(key) {
		case "Sent":
			return d.int(&s.Sent)
		case "Delivered":
			return d.int(&s.Delivered)
		case "Lost":
			return d.int(&s.Lost)
		case "Dropped":
			return d.int(&s.Dropped)
		case "Duplicated":
			return d.int(&s.Duplicated)
		case "Reordered":
			return d.int(&s.Reordered)
		case "Retransmitted":
			return d.int(&s.Retransmitted)
		}
		return d.unknown(key)
	})
}
