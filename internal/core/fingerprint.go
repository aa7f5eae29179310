package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"ioeval/internal/cluster"
)

// A characterization is fully determined by the cluster configuration
// and the (normalized) characterization parameters — nothing else
// feeds the measurement. Hashing that pair gives a content address:
// equal inputs produce equal tables, so one fingerprint names one
// characterization, across processes and across time. The store
// (internal/store) keys its entries by it, and the sweep engine's
// in-memory single-flight shares cells through it.

const (
	fingerprintFormat  = "ioeval-char-fingerprint"
	fingerprintVersion = 2
)

// fingerprintEnvelope is the canonical form that gets hashed. Bumping
// Version (or changing any field) deliberately invalidates every
// stored entry — stale tables are never served for a new format.
type fingerprintEnvelope struct {
	Format  string             `json:"format"`
	Version int                `json:"version"`
	Cluster cluster.Config     `json:"cluster"`
	Char    CharacterizeConfig `json:"characterize"`
}

// Fingerprint derives the content address of the characterization the
// pair (build, cfg) would produce: a hex SHA-256 over the canonical
// JSON of the cluster configuration and the defaults-filled
// characterization parameters. build must return a fresh cluster per
// call (one probe instance is built to read its configuration).
//
// Two calls agree exactly when they would measure the same tables:
// defaults are filled before hashing, so an explicit
// LibProcs: 8 and a zero LibProcs fingerprint identically. The
// session-level fault plan is not part of the key — evaluation
// scenarios run against the healthy characterization — but a
// CharacterizeConfig.Fault plan is: degraded tables are a different
// measurement.
func Fingerprint(build func() *cluster.Cluster, cfg CharacterizeConfig) (string, error) {
	if build == nil {
		return "", fmt.Errorf("core: Fingerprint needs a cluster builder")
	}
	probe := build()
	env := fingerprintEnvelope{
		Format:  fingerprintFormat,
		Version: fingerprintVersion,
		Cluster: probe.Cfg,
		Char:    cfg.withDefaults(probe),
	}
	raw, err := json.Marshal(env)
	if err != nil {
		return "", fmt.Errorf("core: fingerprint: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}
