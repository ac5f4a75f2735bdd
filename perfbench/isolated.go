package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"ahi/internal/bitutil"
	"ahi/internal/btree"
	"ahi/internal/obs"
	"ahi/internal/wal"
)

// Isolated layer measurements: the benchmark calls one layer's exported
// functions directly, outside the index, on inputs cut from the
// workload's own keys. Each result is checked like a workload result.

// forSearchNs times FORArray.SearchSkip on LeafCap-sized arrays built
// from the loaded subset of consecutive generated keys, probed with the
// generated keys of the same window (absent ones included, as the batch
// workload draws them). loaded reports whether generated index i is
// loaded.
func forSearchNs(all []uint64, loaded func(i int) bool, seed int64, probes int, chk *checker) float64 {
	const arrays = 1024
	span := btree.LeafCap + btree.LeafCap/8
	if len(all) < span {
		return 0
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0xf0))
	fors := make([]bitutil.FORArray, arrays)
	members := make([][]uint64, arrays)
	starts := make([]int, arrays)
	for a := range fors {
		s := rng.IntN(len(all) - span + 1)
		starts[a] = s
		for i := s; i < s+span; i++ {
			if loaded(i) {
				members[a] = append(members[a], all[i])
			}
		}
		fors[a] = bitutil.NewFORArray(members[a])
	}
	type probe struct {
		arr int
		key uint64
	}
	ps := make([]probe, probes)
	for i := range ps {
		a := rng.IntN(arrays)
		ps[i] = probe{a, all[starts[a]+rng.IntN(span)]}
	}
	pos := make([]int32, probes)
	t0 := time.Now()
	for i, p := range ps {
		pos[i] = int32(fors[p.arr].SearchSkip(p.key))
	}
	ns := float64(time.Since(t0).Nanoseconds()) / float64(probes)
	for i, p := range ps {
		mem := members[p.arr]
		j := int(pos[i])
		if j > len(mem) || (j < len(mem) && mem[j] < p.key) || (j > 0 && mem[j-1] >= p.key) {
			chk.fail("FOR search of %d returned position %d", p.key, j)
		}
	}
	chk.tally(int64(probes))
	return ns
}

// decodeNsPerPair times PackedArray.DecodeRangeAdd over whole leaf-sized
// frame-of-reference payloads cut from the loaded keys, and reports the
// computed bytes moved per pair (packed bits read plus the 8-byte word
// written).
func decodeNsPerPair(loaded []uint64, seed int64, decodes int, chk *checker) (nsPerPair, bytesPerPair float64) {
	const arrays = 1024
	n := btree.LeafCap
	if len(loaded) < n {
		return 0, 0
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0xde))
	packed := make([]bitutil.PackedArray, arrays)
	frames := make([]uint64, arrays)
	starts := make([]int, arrays)
	var bits float64
	deltas := make([]uint64, n)
	for a := range packed {
		s := rng.IntN(len(loaded) - n + 1)
		starts[a] = s
		frames[a] = loaded[s]
		for i := range deltas {
			deltas[i] = loaded[s+i] - loaded[s]
		}
		w := bitutil.BitsFor(deltas[n-1])
		packed[a] = bitutil.NewPackedArray(deltas, w)
		bits += float64(w)
	}
	order := make([]int, decodes)
	for i := range order {
		order[i] = rng.IntN(arrays)
	}
	dst := make([]uint64, n)
	t0 := time.Now()
	for _, a := range order {
		packed[a].DecodeRangeAdd(0, n, dst, frames[a])
	}
	ns := float64(time.Since(t0).Nanoseconds()) / float64(decodes*n)
	for a := range packed {
		packed[a].DecodeRangeAdd(0, n, dst, frames[a])
		for i, k := range dst {
			if k != loaded[starts[a]+i] {
				chk.fail("decode of payload %d slot %d = %d, want %d", a, i, k, loaded[starts[a]+i])
				break
			}
		}
	}
	chk.tally(arrays)
	return ns, bits/arrays/8 + 8
}

// appendCommitNs times wal.Log.AppendCommit of one insert record under
// SyncInterval (5 ms) in a fresh log directory.
func appendCommitNs(dir string, records int) (float64, error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	l, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncInterval, Interval: 5 * time.Millisecond})
	if err != nil {
		return 0, fmt.Errorf("wal open: %w", err)
	}
	buf := make([]byte, 0, 16)
	t0 := time.Now()
	for i := 0; i < records; i++ {
		k := uint64(i)
		if _, err := l.AppendCommit(wal.RecInsert, wal.EncodeInsert(buf[:0], k, valueOf(k))); err != nil {
			l.Close()
			return 0, fmt.Errorf("wal append: %w", err)
		}
	}
	ns := float64(time.Since(t0).Nanoseconds()) / float64(records)
	if err := l.Close(); err != nil {
		return 0, fmt.Errorf("wal close: %w", err)
	}
	return ns, nil
}

// recordNs times one recorded op through the flight recorder's exported
// probe calls (Begin/End, every op sampled).
func recordNs(ops int) float64 {
	o := obs.New(0, 0)
	r := o.EnableTracing(obs.FlightConfig{SampleEvery: 1}).Scope("perfbench")
	var p obs.OpProbe
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		r.Begin(&p, obs.OpLookup, uint64(i), true)
		p.End()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(ops)
}
