package main

import (
	"math/rand/v2"
	"runtime"
	"sort"
	"time"

	"ahi"
	"ahi/internal/dataset"
)

// batch-uniform-sharded: the control on which adaptation and the cache
// have nothing to gain. One client issues 128-key LookupBatch calls drawn
// uniformly over every generated key; 1 in 8 generated keys is not loaded
// and must come back not-found. The front-end routes each batch and runs
// its per-shard parts one after the other (Workers 1): on a 2-vCPU host a
// parallel fan-out hands every batch to a second vCPU and waits for it, so
// its time would follow the hypervisor's scheduling, not the index.

type batchSize struct {
	n, warmBatches, setups, forProbes int
}

func batchSizes(small bool) batchSize {
	if small {
		return batchSize{n: 400_000, warmBatches: 50, setups: 2, forProbes: 20_000}
	}
	return batchSize{n: 16_000_000, warmBatches: 500, setups: 5, forProbes: 1_000_000}
}

const (
	batchLen         = 128
	batchShadowEvery = 16 // 1 in N traced-window batches gets per-shard shadows
	batchShards      = 2
)

// batchLoaded reports whether generated key i is loaded (7 in 8 are).
func batchLoaded(i int) bool { return i%8 != 7 }

func runBatch(o opts) (*report, error) {
	sz := batchSizes(o.small)
	all := dataset.YCSBKeys(sz.n, o.seed)
	loaded := make([]uint64, 0, len(all))
	for i, k := range all {
		if batchLoaded(i) {
			loaded = append(loaded, k)
		}
	}
	vals := valuesOf(loaded)
	budget := adaptiveBudget(loaded, vals, 8)
	runtime.GC()
	ad := &adaptStats{}
	opt := ahi.BTreeOptions{
		Shards:          batchShards,
		Workers:         1,
		NegFilterBits:   6,
		MemoryBudget:    budget,
		ColdEncoding:    ahi.EncSuccinct,
		AsyncMigrations: true,
		OnAdapt:         ad.observe,
	}
	chk := &checker{}
	bc := &batchClient{all: all, rng: rand.New(rand.NewPCG(uint64(o.seed), 0xba))}

	var srv *ahi.ShardedBTree
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		if srv != nil {
			srv.Close()
			srv = nil
			runtime.GC()
		}
		t0 := time.Now()
		srv = ahi.BulkLoadShardedBTree(opt, loaded, vals)
		for b := 0; b < sz.warmBatches; b++ {
			bc.draw()
			srv.LookupBatch(bc.keys[:], bc.vals[:], bc.found[:])
			bc.check(chk)
		}
		srv.DrainMigrations()
		setups = append(setups, elapsedSince(t0))
	}
	defer srv.Close()
	loaded, vals = nil, nil
	runtime.GC()

	trees := make([]*ahi.BTree, srv.Shards())
	bounds := make([]uint64, 0, len(trees))
	for i := range trees {
		trees[i] = srv.Shard(i)
		if k, ok := firstKey(trees[i].Tree); ok && i > 0 {
			bounds = append(bounds, k)
		}
	}
	ad.reset()
	before := snapCounters(trees...)
	stealsBefore := srv.Steals()
	bc.absent = 0

	t0 := time.Now()
	deadline := t0.Add(time.Duration(o.seconds * float64(time.Second)))
	w := newWindows(t0, o.seconds)
	w.sample(func() float64 { return bytesPerKey(trees...) })
	bc.win = make(counts, w.n)
	bc.tr = newTracer(t0, 0)
	bc.shadowSub = make([][]uint64, len(trees))
	bc.shadowPos = make([][]int, len(trees))
	bc.perShard = make([]int64, len(trees))
	for {
		bc.draw()
		t1 := time.Now()
		if t1.After(deadline) {
			break
		}
		srv.LookupBatch(bc.keys[:], bc.vals[:], bc.found[:])
		t2 := time.Now()
		wi := w.index(t1)
		bc.lat.add(wi, t2.Sub(t1))
		bc.check(chk)
		if o.trace {
			bc.route(bounds)
		}
		if o.trace && wi&1 == 1 {
			if bc.tick%batchShadowEvery == 0 {
				bc.shadow(trees, bounds, t1, t2, chk)
			}
			bc.tick++
		}
		bc.win[wi] += batchLen
		bc.batches++
	}
	bpk := median(w.wait())
	delta := snapCounters(trees...).sub(before)
	var opsMax, opsSum float64
	for _, n := range bc.perShard {
		opsMax, opsSum = max(opsMax, float64(n)), opsSum+float64(n)
	}
	steals := srv.Steals() - stealsBefore
	td := time.Now()
	srv.DrainMigrations()
	drain := time.Since(td)

	keysRate := rate(w, bc.win)
	lat := summarize(w, &bc.lat)
	rep := &report{Workload: "batch-uniform-sharded"}
	chk.into(rep)
	rep.E2E = endToEnd(setups, keysRate/batchLen, keysRate, lat, bpk)
	rep.Details = append([]detail{
		{Name: "setup_s", Value: median(setups), Unit: "s", Samples: len(setups)},
		{Name: "keys_per_s", Value: keysRate, Unit: "keys/s"},
	}, latencyDetails("batch", lat)...)
	rep.Details = append(rep.Details,
		detail{Name: "index_bytes_per_key", Value: bpk, Unit: "B/key"},
		detail{Name: "failed_frac", Value: ratio(float64(rep.Failed), float64(rep.Attempted)), Unit: "ratio"},
	)
	rep.Details = append(rep.Details, w.details()...)
	if o.trace {
		ls := newLayerSet()
		treeLayers(ls, delta, ad, 0, budget, drain, trees...)
		ls.set("btree.negfilter_hit_frac", ratio(float64(delta.negHits), float64(bc.absent)))
		ls.set("btree.batch_ns_per_key", median(bc.shadowNs)/batchLen)
		ls.set("shard.route_ns_per_key", (median(bc.callNs)-median(bc.shadowNs))/batchLen)
		ls.set("shard.imbalance", ratio(opsMax, opsSum/float64(len(trees))))
		ls.set("shard.steals", float64(steals))
		ls.set("bitutil.for_search_ns", forSearchNs(all, batchLoaded, o.seed, sz.forProbes, chk))
		ls.set("trace.overhead_pct", overheadPct(w, bc.win))
		n, err := writeSpans(o, rep.Workload, bc.tr)
		if err != nil {
			return nil, err
		}
		ls.set("trace.spans", float64(n))
		rep.Layers = ls
		chk.into(rep) // the isolated FOR search checks its results too
	}
	return rep, nil
}

type batchClient struct {
	all   []uint64
	rng   *rand.Rand
	idx   [batchLen]int
	keys  [batchLen]uint64
	vals  [batchLen]uint64
	found [batchLen]bool

	batches, absent int64
	lat             series
	win             counts
	tick            int

	tr        *tracer
	req       uint64
	shadowSub [][]uint64
	shadowPos [][]int
	subVals   [batchLen]uint64
	subFound  [batchLen]bool
	callNs    []float64
	shadowNs  []float64
	perShard  []int64 // keys routed to each shard, counted from the bounds
}

// route counts the batch's keys per shard. ShardedBTree.Ops decays at
// every budget rebalance, so its deltas cannot give the split.
func (c *batchClient) route(bounds []uint64) {
	for _, k := range c.keys {
		c.perShard[sort.Search(len(bounds), func(i int) bool { return bounds[i] > k })]++
	}
}

func (c *batchClient) draw() {
	for j := range c.keys {
		i := c.rng.IntN(len(c.all))
		c.idx[j], c.keys[j] = i, c.all[i]
	}
}

// check verifies every slot: loaded keys come back with their value,
// absent keys come back not-found.
func (c *batchClient) check(chk *checker) {
	for j, k := range c.keys {
		if batchLoaded(c.idx[j]) {
			if !c.found[j] || c.vals[j] != valueOf(k) {
				chk.fail("batch slot %d: key %d = (%d, %v)", j, k, c.vals[j], c.found[j])
			}
		} else {
			c.absent++
			if c.found[j] {
				chk.fail("batch slot %d: absent key %d found", j, k)
			}
		}
	}
	chk.tally(batchLen)
}

// shadow repeats the batch straight into each shard's tree, split by the
// shard key ranges, and records the call and the per-shard shadows as
// spans of one request.
func (c *batchClient) shadow(trees []*ahi.BTree, bounds []uint64, t1, t2 time.Time, chk *checker) {
	for s := range c.shadowSub {
		c.shadowSub[s], c.shadowPos[s] = c.shadowSub[s][:0], c.shadowPos[s][:0]
	}
	for j, k := range c.keys {
		s := sort.Search(len(bounds), func(i int) bool { return bounds[i] > k })
		c.shadowSub[s] = append(c.shadowSub[s], k)
		c.shadowPos[s] = append(c.shadowPos[s], j)
	}
	c.req++
	c.tr.add(c.req, "shard.ShardedBTree.LookupBatch", -1, t1, t2)
	var sum time.Duration
	parent := c.tr.add(c.req, "btree.Tree.LookupBatch(shadow)", -1, time.Now(), time.Now())
	for s, sub := range c.shadowSub {
		if len(sub) == 0 {
			continue
		}
		t3 := time.Now()
		trees[s].Tree.LookupBatch(sub, c.subVals[:len(sub)], c.subFound[:len(sub)])
		t4 := time.Now()
		sum += t4.Sub(t3)
		c.tr.add(c.req, "btree.Tree.LookupBatch(shadow shard)", parent, t3, t4)
		for j, k := range sub {
			if c.subFound[j] != c.found[c.shadowPos[s][j]] || (c.subFound[j] && c.subVals[j] != valueOf(k)) {
				chk.fail("shadow batch: key %d = (%d, %v)", k, c.subVals[j], c.subFound[j])
			}
			if !c.subFound[j] {
				c.absent++ // the shadow's negative-filter probes count too
			}
		}
	}
	c.tr.end(parent, time.Now())
	c.callNs = append(c.callNs, float64(t2.Sub(t1).Nanoseconds()))
	c.shadowNs = append(c.shadowNs, float64(sum.Nanoseconds()))
}
