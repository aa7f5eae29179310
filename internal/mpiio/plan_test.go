package mpiio

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ioeval/internal/fs"
)

// sortCover is the reference cover: concatenate every rank's extents,
// sort the whole list by offset and coalesce it with the rule cover
// uses (skip zero-length extents, merge when an extent starts at or
// before the current end).
func sortCover(vecs [][]fs.IOVec) []fs.IOVec {
	var all []fs.IOVec
	for _, vs := range vecs {
		all = append(all, vs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Off < all[j].Off })
	var merged []fs.IOVec
	for _, v := range all {
		if v.Len == 0 {
			continue
		}
		if m := len(merged); m > 0 && v.Off <= merged[m-1].Off+merged[m-1].Len {
			if end := v.Off + v.Len; end > merged[m-1].Off+merged[m-1].Len {
				merged[m-1].Len = end - merged[m-1].Off
			}
		} else {
			merged = append(merged, v)
		}
	}
	return merged
}

// sortPlan is the reference plan: sortCover partitioned across aggs by
// an independent copy of computePlan's even split.
func sortPlan(vecs [][]fs.IOVec, aggs []int) ([]part, int64) {
	merged := sortCover(vecs)
	var total int64
	for _, m := range merged {
		total += m.Len
	}
	nAgg := len(aggs)
	share := (total + int64(nAgg) - 1) / int64(nAgg)
	parts := make([]part, 0, nAgg)
	cur := part{rank: aggs[0]}
	ai := 0
	for _, m := range merged {
		off, length := m.Off, m.Len
		for length > 0 {
			take := min(length, share-cur.size)
			if take > 0 {
				cur.vecs = append(cur.vecs, fs.IOVec{Off: off, Len: take})
				cur.size += take
				off += take
				length -= take
			}
			if cur.size >= share && ai < nAgg-1 {
				parts = append(parts, cur)
				ai++
				cur = part{rank: aggs[ai]}
			}
		}
	}
	if cur.size > 0 || len(parts) == 0 {
		parts = append(parts, cur)
	}
	return parts, total
}

// randomContribution draws one collective's per-rank extent lists.
// Offsets come from a small range and each extent is placed relative to
// the previous one (overlapping, touching, at the same offset, or past
// a gap), with some zero-length extents and some nil or empty ranks;
// each rank's list is then left ascending, reversed, or shuffled.
func randomContribution(rng *rand.Rand) [][]fs.IOVec {
	vecs := make([][]fs.IOVec, 1+rng.Intn(64))
	for r := range vecs {
		switch rng.Intn(8) {
		case 0:
			continue // nil rank
		case 1:
			vecs[r] = []fs.IOVec{}
			continue
		}
		n := 1 + rng.Intn(20)
		vs := make([]fs.IOVec, n)
		off := rng.Int63n(64)
		for i := range vs {
			var l int64
			if rng.Intn(6) != 0 {
				l = 1 + rng.Int63n(16)
			}
			vs[i] = fs.IOVec{Off: off, Len: l}
			switch rng.Intn(4) {
			case 0: // overlap the next extent with this one
				off += l / 2
			case 1: // touch
				off += l
			case 2: // same offset, possibly another length
			default: // gap
				off += l + 1 + rng.Int63n(32)
			}
		}
		switch rng.Intn(3) {
		case 1:
			for i, j := 0, len(vs)-1; i < j; i, j = i+1, j-1 {
				vs[i], vs[j] = vs[j], vs[i]
			}
		case 2:
			rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
		}
		vecs[r] = vs
	}
	return vecs
}

func cloneVecs(vecs [][]fs.IOVec) [][]fs.IOVec {
	out := make([][]fs.IOVec, len(vecs))
	for r, vs := range vecs {
		if vs != nil {
			out[r] = append([]fs.IOVec{}, vs...)
		}
	}
	return out
}

func TestComputePlanMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 3000; trial++ {
		vecs := randomContribution(rng)
		n := 0
		for _, vs := range vecs {
			n += len(vs)
		}
		aggs := make([]int, 1+rng.Intn(n+3))
		for i := range aggs {
			aggs[i] = i
		}
		before := cloneVecs(vecs)
		name := fmt.Sprintf("trial %d (%d ranks, %d extents, %d aggregators)", trial, len(vecs), n, len(aggs))

		if got, want := cover(vecs), sortCover(vecs); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: cover\n got %v\nwant %v", name, got, want)
		}
		c := &collOp{vecs: vecs}
		c.computePlan(&File{aggs: aggs})
		wantParts, wantTotal := sortPlan(vecs, aggs)
		if c.totalBytes != wantTotal {
			t.Fatalf("%s: totalBytes %d, want %d", name, c.totalBytes, wantTotal)
		}
		if !reflect.DeepEqual(c.parts, wantParts) {
			t.Fatalf("%s: parts\n got %+v\nwant %+v", name, c.parts, wantParts)
		}
		if !reflect.DeepEqual(vecs, before) {
			t.Fatalf("%s: computePlan modified the contributions", name)
		}
	}
}

// btioClassC returns the contributions of one BT-IO class C collective
// over 16 ranks: a 162³ grid of 40-byte points stored x fastest and
// split over a 4×4 rank grid in x and y, so each file row holds four
// ranks' segments side by side and every rank contributes about 6.5k
// ascending extents.
func btioClassC() [][]fs.IOVec {
	const n, point, side = 162, 40, 4
	vecs := make([][]fs.IOVec, side*side)
	for z := int64(0); z < n; z++ {
		for y := int64(0); y < n; y++ {
			py := y * side / n
			for px := int64(0); px < side; px++ {
				x0, x1 := px*n/side, (px+1)*n/side
				r := py*side + px
				vecs[r] = append(vecs[r], fs.IOVec{Off: ((z*n+y)*n + x0) * point, Len: (x1 - x0) * point})
			}
		}
	}
	return vecs
}

var planSink []part

func BenchmarkComputePlan(b *testing.B) {
	vecs := btioClassC()
	// One aggregator per node of an 8-node cluster.
	f := &File{aggs: []int{0, 1, 2, 3, 4, 5, 6, 7}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &collOp{vecs: vecs}
		c.computePlan(f)
		planSink = c.parts
	}
}
