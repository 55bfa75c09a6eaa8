package invariant

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"bgploop/internal/durable"
)

// BundleVersion is stamped into every bundle so a future format change
// can be detected on read.
const BundleVersion = 1

// Bundle is the serializable forensic record of one failed trial: the
// scenario identity (content-address key, seed, and a replayable spec),
// the failure itself (violation or panic), and the captured context
// (event trail, RIB digests). It is the interchange format between the
// sweep executor (which writes bundles under the cache dir) and the
// scenario shrinker (bgpsim -shrink).
type Bundle struct {
	Version int `json:"version"`
	// CacheKey is the failing scenario's content address ("" when the
	// scenario is uncacheable).
	CacheKey string `json:"cacheKey,omitempty"`
	// Seed is the trial's RNG seed.
	Seed int64 `json:"seed"`
	// Signature classifies the failure for shrinking: "invariant:<id>",
	// "panic:<value>", or "no-quiescence:<verdict>". Shrinking preserves
	// it exactly.
	Signature string `json:"signature"`
	// Violation is set for invariant breaches.
	Violation *Violation `json:"violation,omitempty"`
	// PanicValue and Stack are set for recovered panics.
	PanicValue string `json:"panicValue,omitempty"`
	Stack      string `json:"stack,omitempty"`
	// Trail is the kernel event trail, oldest first.
	Trail []TrailEntry `json:"trail,omitempty"`
	// RIBDigests snapshots per-node routing state at failure time.
	RIBDigests []string `json:"ribDigests,omitempty"`
	// Scenario is the replayable scenario spec (experiment.ScenarioSpec
	// JSON), when the scenario is spec-representable.
	Scenario json.RawMessage `json:"scenario,omitempty"`
}

// Name returns the bundle's deterministic file name, derived from the
// identifying triple (cache key, seed, signature): the same failure
// always lands in the same file, and distinct trials never collide.
func (b *Bundle) Name() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%d\x00%s", b.CacheKey, b.Seed, b.Signature)
	return "bundle-" + hex.EncodeToString(h.Sum(nil))[:16] + ".json"
}

// WriteBundleFS persists b under dir (creating it if needed) via an
// atomic temp-write-fsync-rename through fsys (nil means the real
// filesystem), so a killed sweep never leaves a torn bundle behind and
// an ENOSPC/EIO during the write surfaces as a structured error instead
// of a silent half-file. It returns the final path.
func WriteBundleFS(fsys durable.FS, dir string, b *Bundle) (string, error) {
	if b.Version == 0 {
		b.Version = BundleVersion
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return "", fmt.Errorf("invariant: encode bundle: %w", err)
	}
	data = append(data, '\n')
	p := filepath.Join(dir, b.Name())
	if err := durable.WriteFileAtomic(fsys, p, data, true); err != nil {
		return "", fmt.Errorf("invariant: write bundle: %w", err)
	}
	return p, nil
}

// ReadBundle loads a bundle previously written by WriteBundleFS.
func ReadBundle(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("invariant: read bundle: %w", err)
	}
	b := &Bundle{}
	if err := json.Unmarshal(data, b); err != nil {
		return nil, fmt.Errorf("invariant: decode bundle %s: %w", path, err)
	}
	if b.Version != BundleVersion {
		return nil, fmt.Errorf("invariant: bundle %s has version %d, want %d", path, b.Version, BundleVersion)
	}
	return b, nil
}
