package bgp

import (
	"fmt"
	"math"
	"time"

	"bgploop/internal/des"
	"bgploop/internal/routing"
)

// DampingConfig enables receiver-side route flap damping (RFC 2439), an
// extension beyond the paper: each (peer, destination) route accumulates a
// penalty on every flap; while the penalty exceeds the suppress threshold
// the route is unusable, and it is reused once the exponentially-decaying
// penalty falls below the reuse threshold.
type DampingConfig struct {
	// WithdrawalPenalty is added when the peer withdraws the route
	// (default 1000, the classic figure of merit).
	WithdrawalPenalty float64
	// AttributePenalty is added when the peer re-announces the route
	// with a different path (default 500).
	AttributePenalty float64
	// SuppressThreshold is the penalty above which the route is
	// suppressed (default 2000).
	SuppressThreshold float64
	// ReuseThreshold is the penalty below which a suppressed route is
	// reused (default 750).
	ReuseThreshold float64
	// HalfLife is the penalty's exponential-decay half life (default
	// 15 minutes).
	HalfLife time.Duration
	// MaxPenalty caps the accumulated penalty (default 12000), bounding
	// the maximum suppression time.
	MaxPenalty float64
}

// DefaultDamping returns the classic RFC 2439 parameters.
func DefaultDamping() *DampingConfig {
	return &DampingConfig{
		WithdrawalPenalty: 1000,
		AttributePenalty:  500,
		SuppressThreshold: 2000,
		ReuseThreshold:    750,
		HalfLife:          15 * time.Minute,
		MaxPenalty:        12000,
	}
}

// Validate reports configuration errors.
func (c *DampingConfig) Validate() error {
	if c.WithdrawalPenalty < 0 || c.AttributePenalty < 0 {
		return fmt.Errorf("bgp: negative damping penalties")
	}
	if c.SuppressThreshold <= c.ReuseThreshold {
		return fmt.Errorf("bgp: suppress threshold %g must exceed reuse threshold %g",
			c.SuppressThreshold, c.ReuseThreshold)
	}
	if c.ReuseThreshold <= 0 {
		return fmt.Errorf("bgp: non-positive reuse threshold %g", c.ReuseThreshold)
	}
	if c.HalfLife <= 0 {
		return fmt.Errorf("bgp: non-positive damping half life %v", c.HalfLife)
	}
	if c.MaxPenalty < c.SuppressThreshold {
		return fmt.Errorf("bgp: max penalty %g below suppress threshold %g",
			c.MaxPenalty, c.SuppressThreshold)
	}
	return nil
}

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
func (d *dampState) decayTo(now des.Time, halfLife time.Duration) {
	if now <= d.lastDecay {
		return
	}
	elapsed := float64(now - d.lastDecay)
	d.penalty *= math.Exp2(-elapsed / float64(halfLife))
	d.lastDecay = now
}

// reuseDelay returns how long until the penalty decays to the reuse
// threshold.
func (d *dampState) reuseDelay(cfg *DampingConfig) time.Duration {
	if d.penalty <= cfg.ReuseThreshold {
		return 0
	}
	halfLives := math.Log2(d.penalty / cfg.ReuseThreshold)
	return time.Duration(halfLives * float64(cfg.HalfLife))
}

// dampUpdate runs the flap-damping state machine for an update from peer.
// It returns the update that should actually be applied to the routing
// table now (possibly a synthetic withdrawal while suppressed) and whether
// any update should be applied at all.
func (s *Speaker) dampUpdate(st *destState, slot int, up *Update) (*Update, bool) {
	cfg := s.cfg.Damping
	now := s.sched.Now()
	from := s.nbrs[slot]
	d := &st.damp[slot]
	d.decayTo(now, cfg.HalfLife)

	// Penalise the flap.
	if up.Withdraw {
		// Only a withdrawal of something we actually held is a flap.
		if prev, ok := st.table.Received(from); ok && prev != nil || d.suppressed && d.latest != nil {
			d.penalty += cfg.WithdrawalPenalty
		}
	} else {
		prev, ok := st.table.Received(from)
		if d.suppressed {
			prev, ok = d.latest, true
		}
		if ok && prev != nil && !prev.Equal(up.Path) {
			d.penalty += cfg.AttributePenalty
		}
	}
	if d.penalty > cfg.MaxPenalty {
		d.penalty = cfg.MaxPenalty
	}

	if d.suppressed {
		// Buffer the newest state; reschedule reuse for the new penalty.
		d.latest = up.Path
		d.reuse.Cancel()
		s.scheduleReuse(st, slot, d)
		return nil, false
	}
	if d.penalty >= cfg.SuppressThreshold {
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
	d.reuse = s.schedule(nil, s.sched.Now()+d.reuseDelay(s.cfg.Damping), evReuse, slot, st)
}

// reuseRoute ends a suppression period: the buffered latest route (if any)
// re-enters the routing table.
func (s *Speaker) reuseRoute(st *destState, slot int) {
	from := s.nbrs[slot]
	d := &st.damp[slot]
	if !d.suppressed {
		return
	}
	d.decayTo(s.sched.Now(), s.cfg.Damping.HalfLife)
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
