package main

import (
	"sync"
	"time"

	"ahi"
	"ahi/internal/btree"
)

// layerUnits lists every per-layer metric with its unit. A traced run of
// any workload reports all of them; a layer that does no work in the
// workload reports 0, which is itself the check that idle layers stay idle.
var layerUnits = []struct{ name, unit string }{
	{"btree.walk_ns", "ns"},
	{"btree.session_ns", "ns"},
	{"btree.batch_ns_per_key", "ns"},
	{"btree.scan_ns_per_pair", "ns"},
	{"btree.negfilter_hit_frac", "ratio"},
	{"btree.leaves_succinct", "count"},
	{"btree.leaves_packed", "count"},
	{"btree.leaves_gapped", "count"},
	{"btree.gapped_bytes_frac", "ratio"},
	{"btree.expansions_per_insert", "ratio"},
	{"btree.compactions", "count"},
	{"shard.route_ns_per_key", "ns"},
	{"shard.imbalance", "ratio"},
	{"shard.steals", "count"},
	{"cache.hit_rate", "ratio"},
	{"cache.admit_rate", "ratio"},
	{"cache.evictions", "count"},
	{"cache.invalidations", "count"},
	{"cache.budget_share", "ratio"},
	{"core.adaptations", "count"},
	{"core.migrations", "count"},
	{"core.migrations_per_phase", "ratio"},
	{"core.queued", "count"},
	{"core.backpressured", "count"},
	{"core.coalesced", "count"},
	{"core.deduped", "count"},
	{"core.max_backlog", "count"},
	{"core.sample_size", "count"},
	{"core.skip_length", "count"},
	{"core.tracked_units", "count"},
	{"core.store_bytes", "bytes"},
	{"core.drain_ms", "ms"},
	{"wal.records_per_fsync", "ratio"},
	{"wal.fsync_us", "us"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"wal.append_commit_ns", "ns"},
	{"wal.checkpoints", "count"},
	{"wal.checkpoint_bytes", "bytes"},
	{"wal.checkpoint_ms", "ms"},
	{"wal.replayed_records", "count"},
	{"wal.warm_start", "bool"},
	{"wal.recover_ms", "ms"},
	{"obs.events_recorded", "count"},
	{"obs.events_dropped", "count"},
	{"obs.record_ns", "ns"},
	{"bitutil.for_search_ns", "ns"},
	{"bitutil.decode_ns_per_pair", "ns"},
	{"bitutil.decode_bytes_per_pair", "bytes"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// layerSet is a traced run's per-layer metrics, every name preset to 0.
type layerSet map[string]metric

func newLayerSet() layerSet {
	ls := layerSet{}
	for _, l := range layerUnits {
		ls[l.name] = metric{Unit: l.unit}
	}
	return ls
}

// set records a value under a declared name; an undeclared name is a bug.
func (ls layerSet) set(name string, v float64) {
	old, ok := ls[name]
	if !ok {
		panic("perfbench: undeclared layer metric " + name)
	}
	ls[name] = m(v, old.Unit)
}

// adaptStats sums the AdaptInfo of every adaptation phase (OnAdapt).
type adaptStats struct {
	mu         sync.Mutex
	phases     int64
	migrations int64
	queued     int64
	maxBacklog int64
}

func (a *adaptStats) observe(info ahi.AdaptInfo) {
	a.mu.Lock()
	a.phases++
	a.migrations += int64(info.Migrations)
	a.queued += int64(info.Queued)
	a.maxBacklog = max(a.maxBacklog, int64(info.Backlog))
	a.mu.Unlock()
}

// reset starts a new measuring interval.
func (a *adaptStats) reset() {
	a.mu.Lock()
	a.phases, a.migrations, a.queued, a.maxBacklog = 0, 0, 0, 0
	a.mu.Unlock()
}

// treeCounters is a snapshot of the exported counters of one or more
// adaptive trees (summed over shards).
type treeCounters struct {
	expansions, compactions         int64
	negHits                         int64
	adaptations, migrations         int64
	backpressured, coalesced, dedup int64
	hits, misses, admitted          int64
	evictions, invalidations        int64
}

func snapCounters(trees ...*ahi.BTree) treeCounters {
	var c treeCounters
	for _, a := range trees {
		c.expansions += a.Tree.Expansions()
		c.compactions += a.Tree.Compactions()
		c.negHits += a.Tree.NegFilterHits()
		c.adaptations += a.Mgr.Adaptations()
		c.migrations += a.Mgr.Migrations()
		c.backpressured += a.Mgr.Backpressured()
		c.coalesced += a.Mgr.CoalescedTriggers()
		c.dedup += a.Mgr.DedupedEnqueues()
		cs := a.CacheStats()
		c.hits += cs.Hits
		c.misses += cs.Misses
		c.admitted += cs.Admitted
		c.evictions += cs.Evictions
		c.invalidations += cs.Invalidations
	}
	return c
}

func (c treeCounters) sub(o treeCounters) treeCounters {
	return treeCounters{
		expansions: c.expansions - o.expansions, compactions: c.compactions - o.compactions,
		negHits:     c.negHits - o.negHits,
		adaptations: c.adaptations - o.adaptations, migrations: c.migrations - o.migrations,
		backpressured: c.backpressured - o.backpressured, coalesced: c.coalesced - o.coalesced,
		dedup: c.dedup - o.dedup,
		hits:  c.hits - o.hits, misses: c.misses - o.misses, admitted: c.admitted - o.admitted,
		evictions: c.evictions - o.evictions, invalidations: c.invalidations - o.invalidations,
	}
}

// treeLayers fills the btree, cache and core metrics every workload shares
// from counter deltas over the measured run and end-of-run state. inserts
// is the number of write calls the clients made; budget the configured
// MemoryBudget.
func treeLayers(ls layerSet, d treeCounters, ad *adaptStats, inserts int64, budget int64, drain time.Duration, trees ...*ahi.BTree) {
	var succ, packed, gapped, bSucc, bPacked, bGapped, cacheBytes, units, store int64
	var sample, skip int
	for _, a := range trees {
		s, p, g := a.Tree.LeafCounts()
		succ, packed, gapped = succ+s, packed+p, gapped+g
		s, p, g = a.Tree.LeafBytes()
		bSucc, bPacked, bGapped = bSucc+s, bPacked+p, bGapped+g
		cacheBytes += a.CacheBytes()
		u, b := a.Mgr.StoreStats()
		units, store = units+int64(u), store+b
		sample, skip = max(sample, a.Mgr.SampleSize()), max(skip, a.Mgr.SkipLength())
	}
	ls.set("btree.leaves_succinct", float64(succ))
	ls.set("btree.leaves_packed", float64(packed))
	ls.set("btree.leaves_gapped", float64(gapped))
	ls.set("btree.gapped_bytes_frac", ratio(float64(bGapped), float64(bSucc+bPacked+bGapped)))
	ls.set("btree.expansions_per_insert", ratio(float64(d.expansions), float64(inserts)))
	ls.set("btree.compactions", float64(d.compactions))

	ls.set("cache.hit_rate", ratio(float64(d.hits), float64(d.hits+d.misses)))
	ls.set("cache.admit_rate", ratio(float64(d.admitted), float64(d.misses)))
	ls.set("cache.evictions", float64(d.evictions))
	ls.set("cache.invalidations", float64(d.invalidations))
	ls.set("cache.budget_share", ratio(float64(cacheBytes), float64(budget)))

	ad.mu.Lock()
	ls.set("core.adaptations", float64(d.adaptations))
	ls.set("core.migrations", float64(d.migrations))
	ls.set("core.migrations_per_phase", ratio(float64(ad.migrations+ad.queued), float64(ad.phases)))
	ls.set("core.queued", float64(ad.queued))
	ls.set("core.max_backlog", float64(ad.maxBacklog))
	ad.mu.Unlock()
	ls.set("core.backpressured", float64(d.backpressured))
	ls.set("core.coalesced", float64(d.coalesced))
	ls.set("core.deduped", float64(d.dedup))
	ls.set("core.sample_size", float64(sample))
	ls.set("core.skip_length", float64(skip))
	ls.set("core.tracked_units", float64(units))
	ls.set("core.store_bytes", float64(store))
	ls.set("core.drain_ms", float64(drain.Nanoseconds())/1e6)
}

// bytesPerKey is the index footprint (tree plus result cache) per live key.
func bytesPerKey(trees ...*ahi.BTree) float64 {
	var b, n int64
	for _, a := range trees {
		b += a.Tree.Bytes() + a.CacheBytes()
		n += int64(a.Tree.Len())
	}
	return ratio(float64(b), float64(n))
}

// firstKey is the smallest key a tree holds (shard routing bounds).
func firstKey(t *btree.Tree) (uint64, bool) {
	var k0 uint64
	n := t.Scan(0, 1, func(k, _ uint64) bool { k0 = k; return false })
	return k0, n > 0
}
