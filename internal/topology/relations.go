package topology

import "fmt"

// Rel is the business relationship of one AS relative to a neighbor, the
// policy substrate of Gao-Rexford routing. The paper's experiments use
// plain shortest-path routing; relationship-aware policies are provided as
// an extension (its introduction notes that loops may also arise from
// policy changes).
type Rel int

const (
	// RelNone means no recorded relationship.
	RelNone Rel = iota
	// RelCustomer: the neighbor is my customer (I provide it transit).
	RelCustomer
	// RelPeer: the neighbor is a settlement-free peer.
	RelPeer
	// RelProvider: the neighbor is my provider (it provides me transit).
	RelProvider
)

// String names the relationship.
func (r Rel) String() string {
	switch r {
	case RelNone:
		return "none"
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	case RelProvider:
		return "provider"
	default:
		return fmt.Sprintf("Rel(%d)", int(r))
	}
}

// invert flips the perspective: if u is v's customer, v is u's provider.
func (r Rel) invert() Rel {
	switch r {
	case RelCustomer:
		return RelProvider
	case RelProvider:
		return RelCustomer
	default:
		return r
	}
}

// Relationships records the business relationship of every annotated edge.
type Relationships struct {
	// rel maps a normalised edge to the relationship of B relative to A
	// (i.e. rel[e] == RelCustomer means B is A's customer).
	rel map[Edge]Rel
}

// NewRelationships returns an empty relationship map.
func NewRelationships() *Relationships {
	return &Relationships{rel: make(map[Edge]Rel)}
}

// SetProviderCustomer records that provider supplies transit to customer.
func (r *Relationships) SetProviderCustomer(provider, customer Node) {
	e := NormEdge(provider, customer)
	if e.A == provider {
		r.rel[e] = RelCustomer // B (= customer) is A's customer
	} else {
		r.rel[e] = RelProvider // B (= provider) is A's provider
	}
}

// SetPeers records a settlement-free peering between a and b.
func (r *Relationships) SetPeers(a, b Node) {
	r.rel[NormEdge(a, b)] = RelPeer
}

// Kind returns the relationship of neighbor u as seen from node v
// (RelCustomer means u is v's customer). RelNone if unannotated.
func (r *Relationships) Kind(v, u Node) Rel {
	e := NormEdge(v, u)
	k, ok := r.rel[e]
	if !ok {
		return RelNone
	}
	if e.A == v {
		return k
	}
	return k.invert()
}

// Len returns the number of annotated edges.
func (r *Relationships) Len() int { return len(r.rel) }

// Validate checks that every edge of g is annotated and that the
// customer-provider digraph is acyclic — the precondition for Gao-Rexford
// convergence guarantees.
func (r *Relationships) Validate(g *Graph) error {
	for _, e := range g.Edges() {
		if _, ok := r.rel[e]; !ok {
			return fmt.Errorf("topology: edge %v has no relationship annotation", e)
		}
	}
	if !r.Acyclic(g) {
		return fmt.Errorf("topology: customer-provider relationships contain a cycle")
	}
	return nil
}

// Acyclic reports whether the provider->customer digraph over g's
// annotated edges has no cycle (Kahn's algorithm).
func (r *Relationships) Acyclic(g *Graph) bool {
	n := g.NumNodes()
	indeg := make([]int, n)
	succ := make([][]Node, n)
	for _, e := range g.Edges() {
		switch r.Kind(e.A, e.B) {
		case RelCustomer: // B is A's customer
			succ[e.A] = append(succ[e.A], e.B)
			indeg[e.B]++
		case RelProvider:
			succ[e.B] = append(succ[e.B], e.A)
			indeg[e.A]++
		}
	}
	queue := make([]Node, 0, n)
	for v, d := range indeg {
		if d == 0 {
			queue = append(queue, Node(v))
		}
	}
	for i := 0; i < len(queue); i++ {
		for _, u := range succ[queue[i]] {
			indeg[u]--
			if indeg[u] == 0 {
				queue = append(queue, u)
			}
		}
	}
	return len(queue) == n
}

// ValleyFree reports whether the AS path (front = most recent AS, back =
// origin) is valley-free under r: traffic first travels up
// customer->provider edges, crosses at most one peer edge, then travels
// down provider->customer edges. Unannotated steps fail the check.
func (r *Relationships) ValleyFree(path []Node) bool {
	const (
		up = iota
		flat
		down
	)
	phase := up
	for i := 0; i+1 < len(path); i++ {
		// The step from path[i] toward path[i+1].
		var step int
		switch r.Kind(path[i], path[i+1]) {
		case RelProvider:
			step = up
		case RelPeer:
			step = flat
		case RelCustomer:
			step = down
		default:
			return false
		}
		switch {
		case step == up && phase != up:
			return false
		case step == flat && phase != up:
			return false
		case step == flat:
			phase = down // at most one peer edge, then downhill only
		case step == down:
			phase = down
		}
	}
	return true
}
