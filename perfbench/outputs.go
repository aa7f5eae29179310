package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"ioeval/internal/telemetry"
)

// topLevel is the order in which a cluster's components are searched
// for the layer its requests entered: the MPI-IO library, then the
// NFS clients, then the local filesystems.
var topLevel = []struct{ prefix, level string }{
	{"mpiio", "library"},
	{"nfs-client:", "nfs"},
	{"fs:", "local"},
}

// entryLevel returns the topmost layer that served requests on one
// cluster and the number it served; "" for a cluster that served none.
func entryLevel(snaps []telemetry.Snapshot) (string, int64) {
	for _, tl := range topLevel {
		var n int64
		for _, s := range snaps {
			if componentIs(s.Component, tl.prefix) {
				n += s.Counters.TotalOps()
			}
		}
		if n > 0 {
			return tl.level, n
		}
	}
	return "", 0
}

// componentIs matches a telemetry component name: a prefix ending in
// ':' matches a family of components, any other prefix one component.
func componentIs(component, prefix string) bool {
	if strings.HasSuffix(prefix, ":") {
		return strings.HasPrefix(component, prefix)
	}
	return component == prefix
}

// topLevelRequests counts the requests that entered the simulated I/O
// stack from above, over every cluster of a phase.
func topLevelRequests(clusters [][]telemetry.Snapshot) int64 {
	var n int64
	for _, snaps := range clusters {
		_, c := entryLevel(snaps)
		n += c
	}
	return n
}

// digests hashes a phase's simulated outputs: the characterization
// tables, the evaluation's result and used-% rows, and the telemetry
// of every cluster the phase built.
func digests(out outcome, clusters [][]telemetry.Snapshot) (map[string]string, error) {
	if out.char == nil {
		return nil, fmt.Errorf("phase returned no characterization")
	}
	d := map[string]string{}
	h := sha256.New()
	if err := out.char.WriteJSON(h); err != nil {
		return nil, fmt.Errorf("digest tables: %w", err)
	}
	d["tables"] = hex.EncodeToString(h.Sum(nil))
	if out.eval != nil {
		d["result"] = hashText(out.eval.Result())
		d["used"] = hashText(out.eval.Used())
	}
	d["counters"] = hashText(clusters)
	return d, nil
}

// hashText hashes v's Go-syntax rendering, which prints every field
// with its raw value (not a rounding String method), map keys in
// sorted order and floats exactly.
func hashText(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", v)))
	return hex.EncodeToString(sum[:])
}

// counterNames are the simulated counters the traced run reports.
var counterNames = []string{
	"mpiio.ops", "mpiio.collective_ops", "nfs.client_ops", "nfs.server_ops",
	"netsim.msgs", "netsim.bytes", "cache.hit_bytes", "cache.miss_bytes",
	"cache.evictions", "cache.writeback_bytes", "fs.ops", "raid.ops",
	"device.ops", "device.busy_s",
}

// simCounters sums the simulated counters over every cluster of a
// phase, by layer.
func simCounters(clusters [][]telemetry.Snapshot) map[string]float64 {
	c := map[string]float64{}
	for _, snaps := range clusters {
		for _, s := range snaps {
			k := s.Counters
			switch {
			case componentIs(s.Component, "mpiio"):
				c["mpiio.ops"] += float64(k.TotalOps())
				c["mpiio.collective_ops"] += float64(k.Aux["collective_ops"])
			case componentIs(s.Component, "nfs-client:"):
				c["nfs.client_ops"] += float64(k.TotalOps())
			case componentIs(s.Component, "nfs-server:"):
				c["nfs.server_ops"] += float64(k.TotalOps())
			case componentIs(s.Component, "net:"):
				c["netsim.msgs"] += float64(k.Write.Ops)
				c["netsim.bytes"] += float64(k.Write.Bytes)
			case componentIs(s.Component, "cache:"):
				for _, key := range []string{"hit_bytes", "miss_bytes", "evictions", "writeback_bytes"} {
					c["cache."+key] += float64(k.Aux[key])
				}
			case componentIs(s.Component, "fs:"):
				c["fs.ops"] += float64(k.TotalOps())
			case componentIs(s.Component, "array:"):
				c["raid.ops"] += float64(k.TotalOps())
			case componentIs(s.Component, "disk:"):
				c["device.ops"] += float64(k.TotalOps())
				c["device.busy_s"] += k.TotalBusy().Seconds()
			}
		}
	}
	return c
}

// referenceJSON holds the digests of the correct simulated outputs of
// every workload and size, keyed by referenceKey. The model is
// deterministic, so every run of a workload must reproduce them; a
// change that moves a simulated output on purpose rewrites them with
// --update-reference and says why.
//
//go:embed reference.json
var referenceJSON []byte

// referenceKey names a workload and size in reference.json.
func referenceKey(o options) string {
	if o.size == "full" {
		return o.wl.name
	}
	return o.wl.name + "/" + o.size
}

// referenceFor returns the reference digests of a key; nil when the
// file has none, which fails every iteration's check.
func referenceFor(key string) map[string]string {
	var all map[string]map[string]string
	if err := json.Unmarshal(referenceJSON, &all); err != nil {
		return map[string]string{"reference.json": "unreadable: " + err.Error()}
	}
	if ref, ok := all[key]; ok {
		return ref
	}
	return map[string]string{"reference.json": "no entry for " + key}
}

// updateReference records digests as the reference of key in the
// reference file of the working tree.
func updateReference(key string, digests map[string]string) error {
	if digests == nil {
		return fmt.Errorf("update reference: no iteration produced outputs")
	}
	all := map[string]map[string]string{}
	raw, err := os.ReadFile(referencePath)
	if err != nil {
		return fmt.Errorf("update reference: %w", err)
	}
	if err := json.Unmarshal(raw, &all); err != nil {
		return fmt.Errorf("update reference: %w", err)
	}
	all[key] = digests
	out, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return fmt.Errorf("update reference: %w", err)
	}
	if err := os.WriteFile(referencePath, append(out, '\n'), 0o644); err != nil {
		return fmt.Errorf("update reference: %w", err)
	}
	return nil
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
