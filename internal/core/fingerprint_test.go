package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// modelDigests pins, per fingerprintVersion, the SHA-256 of the golden
// fixture's persisted characterization. Store entries are keyed by
// fingerprints that include the version, so a model change that moves
// the measured tables without a version bump would let a store filled
// by the old model serve stale tables under current keys.
var modelDigests = map[int]string{
	1: "36f1078267e8cee40e7b3ea44c83cb3ee76fc7161020bce5c04298723d507a54", // before per-unit sharded characterization
	2: "1d6d476d3a4b8f62ae216d244f9ae1c7b12a1c743594544fdd17b401e0789557",
}

func TestModelDigestPinsFingerprintVersion(t *testing.T) {
	ch, err := characterize(goldenCluster, goldenCharCfg(), nil)
	if err != nil {
		t.Fatalf("characterize: %v", err)
	}
	var buf bytes.Buffer
	if err := ch.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	got := hex.EncodeToString(sum[:])
	if want := modelDigests[fingerprintVersion]; got != want {
		t.Fatalf("characterization digest %s, pinned %q for fingerprintVersion %d: "+
			"the model's tables changed, so bump fingerprintVersion and pin the new digest under it",
			got, want, fingerprintVersion)
	}
}
