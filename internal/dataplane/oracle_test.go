package dataplane

import (
	"bgploop/internal/des"
	"bgploop/internal/topology"
)

// walkReplay is Replay as it stood before the epoch-major rewrite, kept
// verbatim as the differential oracle: every packet is walked on its own,
// hop by hop, with one binary search per hop in the per-node logs of the
// reference history (reference_test.go). It has no notion of epochs, so it
// shares no logic with the code it checks. Unlike Replay it does not check
// its sources: an out-of-range one panics.
func walkReplay(h *refHistory, cfg ReplayConfig) (ReplayResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return ReplayResult{}, err
	}
	var res ReplayResult
	w := walker{
		h:       h,
		visited: make([]uint32, h.NumNodes()),
	}
	for _, src := range cfg.Sources {
		if src == cfg.Dest {
			continue
		}
		for at := cfg.Start; at < cfg.End; at += cfg.Interval {
			w.walk(&res, cfg, src, at)
		}
	}
	return res, nil
}

// add records one packet, as the walker resolves them: one at a time.
func (h *HopStats) add(hops int) {
	h.Count++
	h.Total += hops
	if hops > h.Max {
		h.Max = hops
	}
}

// walker carries the epoch-stamped visited array reused across packets so
// that revisit detection is allocation-free.
type walker struct {
	h       *refHistory
	visited []uint32
	epoch   uint32
}

func (w *walker) walk(res *ReplayResult, cfg ReplayConfig, src topology.Node, at des.Time) {
	res.Sent++
	w.epoch++
	pos := src
	t := at
	ttl := cfg.TTL
	looped := false
	hops := 0
	for {
		if pos == cfg.Dest {
			res.Delivered++
			res.DeliveredHops.add(hops)
			if looped {
				res.DeliveredAfterLoop++
				res.EscapedHops.add(hops)
			}
			return
		}
		if w.visited[pos] == w.epoch {
			if !looped {
				looped = true
				res.LoopEncounters++
			}
		} else {
			w.visited[pos] = w.epoch
		}
		next := w.h.NextHop(pos, t)
		if next == topology.None {
			res.NoRoute++
			return
		}
		if ttl == 0 {
			res.TTLExhausted++
			if res.TTLExhausted == 1 || t < res.FirstExhaustion {
				res.FirstExhaustion = t
			}
			if t > res.LastExhaustion {
				res.LastExhaustion = t
			}
			return
		}
		ttl--
		t += cfg.LinkDelay
		pos = next
		res.TotalHops++
		hops++
	}
}
