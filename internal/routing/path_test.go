package routing

import (
	"testing"
	"testing/quick"

	"bgploop/internal/topology"
)

func p(nodes ...topology.Node) Path { return Path(nodes) }

func TestPathBasics(t *testing.T) {
	path := p(5, 6, 4, 0)
	if path.Len() != 4 {
		t.Errorf("Len = %d", path.Len())
	}
	if path.First() != 5 {
		t.Errorf("First = %d", path.First())
	}
	if path.Origin() != 0 {
		t.Errorf("Origin = %d", path.Origin())
	}
	if path.String() != "(5 6 4 0)" {
		t.Errorf("String = %q", path.String())
	}
	var nilPath Path
	if nilPath.First() != topology.None || nilPath.Origin() != topology.None {
		t.Error("nil path First/Origin should be None")
	}
	if nilPath.String() != "(-)" {
		t.Errorf("nil String = %q", nilPath.String())
	}
}

func TestPathContains(t *testing.T) {
	path := p(5, 6, 4, 0)
	for _, v := range []topology.Node{5, 6, 4, 0} {
		if !path.Contains(v) {
			t.Errorf("Contains(%d) = false", v)
		}
	}
	if path.Contains(7) {
		t.Error("Contains(7) = true")
	}
}

func TestPathEqual(t *testing.T) {
	tests := []struct {
		a, b Path
		want bool
	}{
		{p(1, 0), p(1, 0), true},
		{p(1, 0), p(2, 0), false},
		{p(1, 0), p(1, 0, 2), false},
		{nil, nil, true},
		{nil, p(0), false},
		{Path{}, nil, true}, // empty and nil are both "no route"
	}
	for _, tt := range tests {
		if got := tt.a.Equal(tt.b); got != tt.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestPathPrependDoesNotAlias(t *testing.T) {
	base := p(4, 0)
	q := base.Prepend(5)
	if q.String() != "(5 4 0)" {
		t.Errorf("Prepend = %v", q)
	}
	q[1] = 99
	if base[0] != 4 {
		t.Error("Prepend aliased the original path")
	}
}

// TestArenaPathsAreSealed: every path the arena hands out has cap == len,
// so an append to one moves it and leaves the next path in the block as
// it was.
func TestArenaPathsAreSealed(t *testing.T) {
	var a Arena
	first := a.Prepend(p(4, 0), 5)
	second := a.Prepend(p(2, 0), 3)
	if cap(first) != len(first) || cap(second) != len(second) {
		t.Fatalf("cap/len %d/%d and %d/%d, want equal", cap(first), len(first), cap(second), len(second))
	}
	grown := append(first, 9)
	grown[0] = 7
	if !first.Equal(p(5, 4, 0)) || !second.Equal(p(3, 2, 0)) {
		t.Fatalf("an append to an arena path wrote through: first %v, second %v", first, second)
	}
}

// TestArenaMatchesPrepend: Arena.Prepend builds what Path.Prepend builds —
// on the empty path, on short paths filling several blocks, and on paths
// longer than any block — and a nil arena falls back to Path.Prepend.
func TestArenaMatchesPrepend(t *testing.T) {
	var a Arena
	var nilArena *Arena
	var kept, wants []Path
	for i := 0; i < 3*arenaMax; i++ {
		n := i % 9
		if i%500 == 7 {
			n = arenaMax + i%3 // longer than a block
		}
		base := make(Path, n)
		for j := range base {
			base[j] = topology.Node(j*7 + i)
		}
		v := topology.Node(i % 100)
		want := base.Prepend(v)
		for _, got := range []Path{a.Prepend(base, v), nilArena.Prepend(base, v)} {
			if !got.Equal(want) || cap(got) != len(got) {
				t.Fatalf("step %d: Prepend(%d ids, %d) = %v (cap %d), want %v", i, n, v, got, cap(got), want)
			}
		}
		kept, wants = append(kept, a.Prepend(base, v)), append(wants, want)
	}
	var empty Path
	if got := a.Prepend(empty, 3); !got.Equal(p(3)) || !empty.Prepend(3).Equal(got) {
		t.Fatalf("Prepend on the empty path = %v, want (3)", got)
	}
	for i := range kept {
		if !kept[i].Equal(wants[i]) {
			t.Fatalf("path %d changed to %v after later Prepends, want %v", i, kept[i], wants[i])
		}
	}
}

func TestPathClone(t *testing.T) {
	var nilPath Path
	if nilPath.Clone() != nil {
		t.Error("Clone(nil) != nil")
	}
	orig := p(1, 2, 0)
	c := orig.Clone()
	c[0] = 9
	if orig[0] != 1 {
		t.Error("Clone aliased the original")
	}
}

func TestSuffixFrom(t *testing.T) {
	path := p(5, 6, 4, 0)
	if suf, ok := path.SuffixFrom(4); !ok || !suf.Equal(p(4, 0)) {
		t.Errorf("SuffixFrom(4) = %v, %v", suf, ok)
	}
	if suf, ok := path.SuffixFrom(5); !ok || !suf.Equal(path) {
		t.Errorf("SuffixFrom(5) = %v, %v", suf, ok)
	}
	if _, ok := path.SuffixFrom(9); ok {
		t.Error("SuffixFrom(absent) reported found")
	}
}

func TestPropertyPrependContains(t *testing.T) {
	f := func(nodes []uint8, v uint8) bool {
		base := make(Path, len(nodes))
		for i, n := range nodes {
			base[i] = topology.Node(n)
		}
		q := base.Prepend(topology.Node(v))
		// Prepend increases length by one, puts v first, and preserves
		// every containment.
		if q.Len() != base.Len()+1 || q.First() != topology.Node(v) {
			return false
		}
		if !q.Contains(topology.Node(v)) {
			return false
		}
		for _, n := range base {
			if !q.Contains(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertySuffixFromIsSuffix(t *testing.T) {
	f := func(nodes []uint8) bool {
		path := make(Path, len(nodes))
		for i, n := range nodes {
			path[i] = topology.Node(n)
		}
		for _, v := range path {
			suf, ok := path.SuffixFrom(v)
			if !ok || suf.First() != v {
				return false
			}
			// The suffix must match the tail of the path.
			tail := path[len(path)-len(suf):]
			if !suf.Equal(tail) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
