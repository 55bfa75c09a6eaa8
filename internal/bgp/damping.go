package bgp

import (
	"math"
	"time"

	"bgploop/internal/des"
	"bgploop/internal/routing"
)

// Route flap damping (RFC 2439), an extension beyond the paper, runs at
// every speaker when Config.Damping is set: each (peer, destination) route
// accumulates a penalty on every flap; while the penalty exceeds the
// suppress threshold the route is unusable, and it is reused once the
// exponentially-decaying penalty falls below the reuse threshold. The
// parameters are the classic RFC 2439 figures.
const (
	dampWithdrawalPenalty = 1000             // added when the peer withdraws the route
	dampAttributePenalty  = 500              // added when the peer re-announces it with another path
	dampSuppressThreshold = 2000             // the route is suppressed at this penalty
	dampReuseThreshold    = 750              // a suppressed route is reused below this penalty
	dampHalfLife          = 15 * time.Minute // the penalty's exponential-decay half life
	dampMaxPenalty        = 12000            // caps the penalty, bounding the suppression time
)

// dampState tracks the figure of merit for one (destination, peer) route
// at the receiving speaker. The zero value is a peer with no flap history:
// a zero penalty decays to zero whatever its lastDecay.
type dampState struct {
	penalty    float64
	lastDecay  des.Time
	suppressed bool
	// latest is the most recent update from the peer, buffered while
	// suppressed (nil path = withdrawn).
	latest routing.Path
	// reuse is the scheduled reuse event.
	reuse des.Handle
}

// decayTo brings the penalty forward to virtual time now.
func (d *dampState) decayTo(now des.Time) {
	if now <= d.lastDecay {
		return
	}
	elapsed := float64(now - d.lastDecay)
	d.penalty *= math.Exp2(-elapsed / float64(dampHalfLife))
	d.lastDecay = now
}

// reuseDelay returns how long until the penalty decays to the reuse
// threshold.
func (d *dampState) reuseDelay() time.Duration {
	if d.penalty <= dampReuseThreshold {
		return 0
	}
	halfLives := math.Log2(d.penalty / dampReuseThreshold)
	return time.Duration(halfLives * float64(dampHalfLife))
}

// dampUpdate runs the flap-damping state machine for an update from peer.
// It returns the update that should actually be applied to the routing
// table now (possibly a synthetic withdrawal while suppressed) and whether
// any update should be applied at all.
func (s *Speaker) dampUpdate(st *destState, slot int, up *Update) (*Update, bool) {
	from := s.nbrs[slot]
	d := &st.damp[slot]
	d.decayTo(s.sched.Now())

	// Penalise the flap.
	if up.Withdraw {
		// Only a withdrawal of something we actually held is a flap.
		if prev, ok := st.table.Received(from); ok && prev != nil || d.suppressed && d.latest != nil {
			d.penalty += dampWithdrawalPenalty
		}
	} else {
		prev, ok := st.table.Received(from)
		if d.suppressed {
			prev, ok = d.latest, true
		}
		if ok && prev != nil && !prev.Equal(up.Path) {
			d.penalty += dampAttributePenalty
		}
	}
	if d.penalty > dampMaxPenalty {
		d.penalty = dampMaxPenalty
	}

	if d.suppressed {
		// Buffer the newest state; reschedule reuse for the new penalty.
		d.latest = up.Path
		d.reuse.Cancel()
		s.scheduleReuse(st, slot, d)
		return nil, false
	}
	if d.penalty >= dampSuppressThreshold {
		// Suppress: the table must forget the route until reuse.
		d.suppressed = true
		d.latest = up.Path
		s.stats.RoutesSuppressed++
		s.scheduleReuse(st, slot, d)
		return &st.wd, true
	}
	return up, true
}

// scheduleReuse arms the reuse timer of the suppressed route from slot.
func (s *Speaker) scheduleReuse(st *destState, slot int, d *dampState) {
	d.reuse = s.schedule(nil, s.sched.Now()+d.reuseDelay(), evReuse, slot, st)
}

// reuseRoute ends a suppression period: the buffered latest route (if any)
// re-enters the routing table.
func (s *Speaker) reuseRoute(st *destState, slot int) {
	from := s.nbrs[slot]
	d := &st.damp[slot]
	if !d.suppressed {
		return
	}
	d.decayTo(s.sched.Now())
	d.suppressed = false
	s.stats.RoutesReused++
	if !s.up[slot] {
		return
	}
	var changed bool
	if d.latest == nil {
		changed = st.table.Withdraw(from)
	} else {
		changed = st.table.Update(from, d.latest)
	}
	if changed {
		s.bestChanged(st)
	}
}
