package bgp

import (
	"fmt"

	"bgploop/internal/des"
	"bgploop/internal/topology"
)

// Session FSM. With Config.Session enabled (HoldTime > 0) a speaker no
// longer treats the physical link as the session: each peering runs a
// reduced RFC 4271 state machine —
//
//	Idle        link down; nothing happens until PeerUp.
//	Connect     link up, handshake in progress; Opens are (re)sent with
//	            capped exponential ConnectRetry backoff + jitter.
//	Established routes flow; while the link is impaired a hold timer
//	            watches the peer and keepalives are generated.
//
// Sustained loss starves the hold timer; expiry tears the session down
// (implicit withdrawal of everything learned over it — the peerLeave
// path), and re-establishment begins with backoff. Connection generations
// in Open messages disambiguate retransmitted handshakes of the current
// connection from genuine peer restarts.
//
// Session messages are handled at the delivery instant, bypassing the
// serial route processor: the paper charges processing delay to routing
// messages only, and session management models the TCP/FSM layer
// underneath it.
//
// Quiescence contract: hold and keepalive timers are armed only while the
// peer link is impaired (netsim.Network.Impaired). On a clean link the
// transport delivers every message in order, so a hold timer can never
// legitimately expire and keepalives would merely keep the event queue
// non-empty forever. Scenarios that want hold-timer dynamics must bound
// the degraded window (Degrade then Restore) or accept a run that only
// quiesces after the impairment clears; a permanent base impairment plus
// the FSM keeps keepalive traffic flowing indefinitely by design.
type sessionState struct {
	state    SessionState
	localGen uint64 // our connection generation; bumped on each entry to Connect
	peerGen  uint64 // the peer generation we established against
	attempts int    // consecutive ConnectRetry expirations this connect cycle

	// lastSent is the instant any message (update, Open, keepalive) last
	// went to this peer; keepalive ticks are suppressed when it is fresh.
	lastSent des.Time

	armed bool // hold/keepalive machinery live (link impaired)
	hold  des.Handle
	keep  des.Handle
	retry des.Handle
}

// SessionState is the observable state of one peering.
type SessionState int

const (
	// SessionIdle: the physical link is down.
	SessionIdle SessionState = iota
	// SessionConnect: link up, handshake or re-establishment in progress.
	SessionConnect
	// SessionEstablished: routes flow over the session.
	SessionEstablished
)

// String names the state.
func (s SessionState) String() string {
	switch s {
	case SessionIdle:
		return "idle"
	case SessionConnect:
		return "connect"
	case SessionEstablished:
		return "established"
	}
	return fmt.Sprintf("SessionState(%d)", int(s))
}

// SessionState returns the FSM state of the peering with peer. With the
// FSM disabled it derives the state from the physical link: established
// when the peer is up, idle otherwise.
func (s *Speaker) SessionState(peer topology.Node) SessionState {
	slot := s.slot(peer)
	switch {
	case slot < 0:
		return SessionIdle
	case s.cfg.Session.Enabled():
		return s.sessions[slot].state
	case s.up[slot]:
		return SessionEstablished
	}
	return SessionIdle
}

// PeerEstablished reports whether routes currently flow to/from peer.
func (s *Speaker) PeerEstablished(peer topology.Node) bool {
	return s.SessionState(peer) == SessionEstablished
}

// startConnect enters Connect on the peering in slot: new generation,
// immediate Open, retry timer armed.
func (s *Speaker) startConnect(slot int) {
	sess := &s.sessions[slot]
	sess.state = SessionConnect
	sess.localGen++
	sess.attempts = 0
	s.sendOpen(slot, 0)
	s.armRetry(slot)
}

// sendOpen transmits Open{localGen, ack}, boxed in the group's Open slab,
// to the peer in slot. Like update sends, an Open racing a link failure is
// silently dropped.
func (s *Speaker) sendOpen(slot int, ack uint64) {
	sess := &s.sessions[slot]
	if err := s.net.SendLink(s.link0+slot, s.grp.opens.box(Open{Gen: sess.localGen, Ack: ack})); err != nil {
		return
	}
	s.stats.OpensSent++
	sess.lastSent = s.sched.Now()
}

// armRetry schedules the next connection attempt with capped exponential
// backoff and multiplicative jitter.
func (s *Speaker) armRetry(slot int) {
	sess := &s.sessions[slot]
	sess.retry.Cancel()
	base := s.connectBackoff(sess.attempts)
	factor := des.UniformFactor(s.rngSess, s.cfg.JitterMin, s.cfg.JitterMax)
	delay := des.Time(float64(base) * factor)
	if delay <= 0 {
		delay = 1
	}
	sess.retry = s.schedule(nil, s.sched.Now()+delay, evRetry, slot, nil)
}

// connectBackoff returns the base backoff of attempt i (0-based),
// ConnectRetry doubled per attempt and capped at ConnectRetryMax.
func (s *Speaker) connectBackoff(i int) des.Time {
	cfg := s.cfg.Session
	if i > 62 {
		return cfg.ConnectRetryMax
	}
	d := cfg.ConnectRetry << uint(i)
	if d <= 0 || d > cfg.ConnectRetryMax {
		return cfg.ConnectRetryMax
	}
	return d
}

// retryExpired re-sends the Open after a silent ConnectRetry interval.
func (s *Speaker) retryExpired(slot int) {
	sess := &s.sessions[slot]
	if sess.state != SessionConnect {
		return
	}
	sess.attempts++
	s.sendOpen(slot, 0)
	s.armRetry(slot)
}

// handleOpen runs the handshake state machine at the delivery instant.
func (s *Speaker) handleOpen(slot int, o *Open) {
	sess := &s.sessions[slot]
	switch sess.state {
	case SessionIdle:
		// Link considered down locally; a racing Open is obsolete.
		return
	case SessionConnect:
		if o.Ack != 0 && o.Ack != sess.localGen {
			return // ack of a previous generation of ours: stale
		}
		sess.peerGen = o.Gen
		if o.Ack == 0 {
			// Unsolicited Open: complete the handshake with an ack.
			s.sendOpen(slot, o.Gen)
		}
		s.establish(slot)
	case SessionEstablished:
		switch {
		case o.Gen == sess.peerGen:
			// Retransmitted handshake of the current connection. Ack it
			// unless it already acks our generation: 0 means the peer
			// still waits for our ack, any other value that it holds a
			// wrong one.
			if o.Ack != sess.localGen {
				s.sendOpen(slot, o.Gen)
			}
			s.refreshHold(slot)
		case o.Ack == sess.localGen:
			// The peer restarted in answer to our current generation: it
			// has flushed what we sent, and its own table follows this
			// Open on the wire. Re-sync against its generation without
			// starting one of ours, which the peer would read as a
			// restart in turn, forever.
			sess.peerGen = o.Gen
			s.sendOpen(slot, o.Gen)
			s.resync(slot)
		case o.Gen < sess.peerGen:
			// Generations only grow: an Open older than the connection
			// we hold is stale.
		default:
			// New peer generation: the peer restarted the session (e.g.
			// its hold timer expired while ours survived). Flush and
			// re-establish under a generation of ours above any the peer
			// has acked, so that it cannot take the new one for the
			// connection it holds.
			s.teardownSession(slot)
			sess.state = SessionConnect
			sess.localGen = max(sess.localGen, o.Ack) + 1
			sess.attempts = 0
			sess.peerGen = o.Gen
			s.sendOpen(slot, o.Gen)
			s.establish(slot)
		}
	}
}

// resync re-sends the full table over the live session in slot after the
// peer restarted against it. Nothing is flushed and no message in flight
// dies: the peer's fresh table is behind its Open, and every route it held
// from us is replaced by the one it is sent now. Like establish, it
// reports SessionUp, so per-session invariant state starts over.
func (s *Speaker) resync(slot int) {
	s.net.SessionEstablished(s.id, s.nbrs[slot])
	for _, st := range s.dests {
		if st == nil {
			continue
		}
		s.sched.Drop(st.mrai[slot].timer)
		st.adv[slot] = nil
		st.mrai[slot] = mraiState{}
		s.advertise(st, slot)
	}
	s.refreshHold(slot)
}

// establish completes the handshake: the session carries routes from this
// instant, the network layer (and through it the invariant engine) sees
// SessionUp, and full tables are exchanged (peerJoin).
func (s *Speaker) establish(slot int) {
	sess := &s.sessions[slot]
	peer := s.nbrs[slot]
	sess.state = SessionEstablished
	sess.attempts = 0
	sess.retry.Cancel()
	s.stats.SessionsEstablished++
	// SessionUp reaches the tap before the full-table advertisements below,
	// so per-session invariant state (MRAI windows, FIFO epochs) resets
	// before the first message of the new session.
	s.net.SessionEstablished(s.id, peer)
	if s.net.Impaired(s.id, peer) {
		sess.armed = true
		s.refreshHold(slot)
		s.armKeepalive(slot)
	}
	s.peerJoin(slot)
}

// stopTimers disarms the hold/keepalive machinery of the peering in slot
// and cancels its retry timer.
func (s *Speaker) stopTimers(slot int) {
	sess := &s.sessions[slot]
	sess.armed = false
	sess.hold.Cancel()
	sess.keep.Cancel()
	sess.retry.Cancel()
}

// teardownSession kills the session: timers stop, in-flight messages die
// with the TCP connection (KillSession), and everything learned over the
// peer is withdrawn (peerLeave). The caller decides the successor state.
func (s *Speaker) teardownSession(slot int) {
	s.stopTimers(slot)
	s.net.KillSession(s.id, s.nbrs[slot])
	s.peerLeave(slot)
}

// holdExpired declares the peer dead after HoldTime of silence. The first
// reconnection attempt waits one ConnectRetry backoff — the FSM backs off
// rather than hammering a link that just starved it.
func (s *Speaker) holdExpired(slot int) {
	sess := &s.sessions[slot]
	if sess.state != SessionEstablished {
		return
	}
	s.stats.HoldExpiries++
	s.teardownSession(slot)
	sess.state = SessionConnect
	sess.localGen++
	sess.attempts = 0
	s.armRetry(slot)
}

// refreshHold restarts the hold timer after hearing from the peer. No-op
// while the machinery is disarmed (link clean).
func (s *Speaker) refreshHold(slot int) {
	sess := &s.sessions[slot]
	if !sess.armed {
		return
	}
	sess.hold.Cancel()
	sess.hold = s.schedule(nil, s.sched.Now()+des.Time(s.cfg.Session.HoldTime), evHold, slot, nil)
}

// armKeepalive schedules the next keepalive tick.
func (s *Speaker) armKeepalive(slot int) {
	sess := &s.sessions[slot]
	sess.keep.Cancel()
	sess.keep = s.schedule(nil, s.sched.Now()+des.Time(s.cfg.Session.KeepaliveInterval), evKeep, slot, nil)
}

// keepTick sends a keepalive unless other traffic to the peer already
// refreshed it within the interval (RFC 4271 §4.4 suppression).
func (s *Speaker) keepTick(slot int) {
	sess := &s.sessions[slot]
	if sess.state != SessionEstablished || !sess.armed {
		return
	}
	if s.sched.Now()-sess.lastSent >= des.Time(s.cfg.Session.KeepaliveInterval) {
		if err := s.net.SendLink(s.link0+slot, Keepalive{}); err == nil {
			s.stats.KeepalivesSent++
			sess.lastSent = s.sched.Now()
		}
	} else {
		s.stats.KeepalivesSuppressed++
	}
	s.armKeepalive(slot)
}

// LinkDegraded implements netsim.DegradeAware: an impairment appeared on
// the link to peer, so the hold/keepalive machinery arms.
func (s *Speaker) LinkDegraded(peer topology.Node) {
	slot := s.slot(peer)
	if !s.cfg.Session.Enabled() || slot < 0 {
		return
	}
	sess := &s.sessions[slot]
	if sess.state != SessionEstablished || sess.armed {
		return
	}
	sess.armed = true
	s.refreshHold(slot)
	s.armKeepalive(slot)
}

// LinkImpairmentCleared implements netsim.DegradeAware: the link to peer
// is clean again; delivery is reliable, so the timers disarm and the run
// can quiesce.
func (s *Speaker) LinkImpairmentCleared(peer topology.Node) {
	slot := s.slot(peer)
	if !s.cfg.Session.Enabled() || slot < 0 {
		return
	}
	sess := &s.sessions[slot]
	sess.armed = false
	sess.hold.Cancel()
	sess.keep.Cancel()
}

// noteSent records outbound traffic to the peer in slot for keepalive
// suppression.
func (s *Speaker) noteSent(slot int) {
	if s.cfg.Session.Enabled() {
		s.sessions[slot].lastSent = s.sched.Now()
	}
}
