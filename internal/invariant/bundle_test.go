package invariant

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestBundleRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b := &Bundle{
		CacheKey:  "abc123",
		Seed:      42,
		Signature: "invariant:rib-fib-coherence",
		Violation: &Violation{
			ID: "rib-fib-coherence", At: 3 * time.Second, Node: 2, Peer: NoNode,
			Detail: "RIB next hop 1 != FIB next hop none",
			Trail:  []TrailEntry{{At: time.Second, Kind: "deliver", Node: 0, Peer: 2, Detail: "msg 1"}},
		},
		RIBDigests: []string{"node=2 best=[2 0]"},
		Scenario:   json.RawMessage(`{"topology":{"family":"clique","size":3}}`),
	}
	path, err := WriteBundleFS(nil, dir, b)
	if err != nil {
		t.Fatalf("WriteBundleFS: %v", err)
	}
	got, err := ReadBundle(path)
	if err != nil {
		t.Fatalf("ReadBundle: %v", err)
	}
	if got.Version != BundleVersion {
		t.Fatalf("version = %d, want %d", got.Version, BundleVersion)
	}
	if got.Signature != b.Signature || got.Seed != b.Seed || got.CacheKey != b.CacheKey {
		t.Fatalf("identity fields did not round-trip: %+v", got)
	}
	if got.Violation == nil || got.Violation.ID != "rib-fib-coherence" || len(got.Violation.Trail) != 1 {
		t.Fatalf("violation did not round-trip: %+v", got.Violation)
	}
	var gotSpec, wantSpec bytes.Buffer
	if err := json.Compact(&gotSpec, got.Scenario); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&wantSpec, b.Scenario); err != nil {
		t.Fatal(err)
	}
	if gotSpec.String() != wantSpec.String() {
		t.Fatalf("scenario spec did not round-trip: %s", got.Scenario)
	}
}

func TestBundleNameDeterministic(t *testing.T) {
	a := &Bundle{CacheKey: "k", Seed: 1, Signature: "panic: boom"}
	b := &Bundle{CacheKey: "k", Seed: 1, Signature: "panic: boom"}
	if a.Name() != b.Name() {
		t.Fatal("identical bundles produced different names")
	}
	c := &Bundle{CacheKey: "k", Seed: 2, Signature: "panic: boom"}
	if a.Name() == c.Name() {
		t.Fatal("distinct seeds collided")
	}
	if !strings.HasPrefix(a.Name(), "bundle-") || !strings.HasSuffix(a.Name(), ".json") {
		t.Fatalf("unexpected name shape: %s", a.Name())
	}
}

func TestWriteBundleLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteBundleFS(nil, dir, &Bundle{Seed: 7, Signature: "invariant:channel-fifo"}); err != nil {
		t.Fatalf("WriteBundleFS: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("dir has %d entries, want exactly the bundle", len(ents))
	}
}

func TestReadBundleRejectsVersionSkew(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(p, []byte(`{"version":99,"seed":1,"signature":"x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBundle(p); err == nil {
		t.Fatal("version-skewed bundle accepted")
	}
	if _, err := ReadBundle(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing bundle accepted")
	}
}
