package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ahi"
	"ahi/internal/dataset"
	"ahi/internal/workload"
)

// scan-write-durable: writes beside reads on the same leaves of a durable
// index. Client A issues fused ScanBatch calls of 8 YCSB-E-long requests
// (Zipf(0.99) starts over the loaded keys, lengths uniform in 256..1024);
// client B issues a durable Insert of a not-yet-loaded key, then a Lookup
// of one of its last 64 inserts, at a target rate of writerRate pairs/s. The run ends with an explicit
// checkpoint, a fixed tail of acked inserts, Close and a timed reopen.

type scanSize struct {
	n, setups, warmScans, tailInserts int
	ckptEvery                         int64
	decodes, appendRecords, recordOps int
}

func scanSizes(small bool) scanSize {
	if small {
		return scanSize{n: 800_000, setups: 2, warmScans: 20, tailInserts: 2_000, ckptEvery: 5_000,
			decodes: 2_000, appendRecords: 5_000, recordOps: 10_000}
	}
	return scanSize{n: 4_500_000, setups: 5, warmScans: 200, tailInserts: 20_000, ckptEvery: 200_000,
		decodes: 200_000, appendRecords: 200_000, recordOps: 1_000_000}
}

const (
	scanReqs          = 8
	scanMinLen        = 256
	scanMaxLen        = 1024
	lookupBack        = 64 // B looks up one of its last N inserts
	loadBatch         = 4096
	scanShadowEvery   = 8  // 1 in N traced-window scan batches gets a shadow
	writerShadowEvery = 64 // 1 in N traced-window lookups gets a shadow walk

	// Client B runs at a target rate, as YCSB's -target does: every
	// writerTick it issues writerRate*writerTick insert-lookup pairs back
	// to back, then waits for the next tick. A tick it falls behind on is
	// not made up. The rate leaves most of a vCPU to the log syncer,
	// checkpoints, migrations and the collector, so client A's scans are
	// measured beside a fixed write load whatever the host's speed.
	writerRate = 25_000 // acked inserts per second
	writerTick = 5 * time.Millisecond
)

// scanLoaded reports whether generated key i is loaded at set-up (2 in 3,
// so 3 M of 4.5 M keys). The other 1.5 M form the writer's pool, which
// lasts 60 s at writerRate.
func scanLoaded(i int) bool { return i%3 != 2 }

// scanKeys is the workload's key space: the loaded keys and the writer's
// pool in insertion order, plus the pool sorted with each key's insertion
// position, for the scan completeness check.
type scanKeys struct {
	loaded   []uint64
	pool     []uint64
	poolKeys []uint64 // pool, sorted
	poolPos  []int32  // insertion position of poolKeys[i]
}

func newScanKeys(n int, seed int64) *scanKeys {
	all := dataset.YCSBKeys(n, seed)
	sk := &scanKeys{}
	for i, k := range all {
		if scanLoaded(i) {
			sk.loaded = append(sk.loaded, k)
		} else {
			sk.pool = append(sk.pool, k)
			sk.poolKeys = append(sk.poolKeys, k)
		}
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x9001))
	rng.Shuffle(len(sk.pool), func(i, j int) { sk.pool[i], sk.pool[j] = sk.pool[j], sk.pool[i] })
	pos := make(map[uint64]int32, len(sk.pool))
	for i, k := range sk.pool {
		pos[k] = int32(i)
	}
	sk.poolPos = make([]int32, len(sk.poolKeys))
	for i, k := range sk.poolKeys {
		sk.poolPos[i] = pos[k]
	}
	return sk
}

// verify checks one scan result: ascending, every pair a loaded key or a
// pool key whose insert had started by the scan's end, with its value; no
// loaded key and no key acked before the scan started is skipped; and the
// result holds exactly min(n, remaining) pairs.
func (sk *scanKeys) verify(from uint64, n int, keys, vals []uint64, ackedStart, startedEnd int64, chk *checker) {
	if len(keys) > n {
		chk.fail("scan from %d: %d pairs for a request of %d", from, len(keys), n)
		return
	}
	i, _ := slices.BinarySearch(sk.loaded, from)
	j, _ := slices.BinarySearch(sk.poolKeys, from)
	nextPool := ^uint64(0)
	if j < len(sk.poolKeys) {
		nextPool = sk.poolKeys[j]
	}
	for x, k := range keys {
		if vals[x] != valueOf(k) {
			chk.fail("scan from %d: pair %d (%d, %d) has a wrong value", from, x, k, vals[x])
			return
		}
		// Fast path: the next loaded key, with no pool key before it.
		if i < len(sk.loaded) && sk.loaded[i] == k && k < nextPool {
			i++
			continue
		}
		if k < from || (x > 0 && k <= keys[x-1]) {
			chk.fail("scan from %d: pair %d (%d) out of order", from, x, k)
			return
		}
		if i < len(sk.loaded) && sk.loaded[i] < k {
			chk.fail("scan from %d: loaded key %d skipped", from, sk.loaded[i])
			return
		}
		for ; j < len(sk.poolKeys) && sk.poolKeys[j] < k; j++ {
			if int64(sk.poolPos[j]) < ackedStart {
				chk.fail("scan from %d: acked key %d skipped", from, sk.poolKeys[j])
				return
			}
		}
		switch {
		case i < len(sk.loaded) && sk.loaded[i] == k:
			i++
		case j < len(sk.poolKeys) && sk.poolKeys[j] == k && int64(sk.poolPos[j]) < startedEnd:
			j++
		default:
			chk.fail("scan from %d: phantom key %d", from, k)
			return
		}
		nextPool = ^uint64(0)
		if j < len(sk.poolKeys) {
			nextPool = sk.poolKeys[j]
		}
	}
	if len(keys) == n {
		return
	}
	// A short result must have reached the end of the key space.
	if i < len(sk.loaded) {
		chk.fail("scan from %d: %d of %d pairs, loaded key %d missing", from, len(keys), n, sk.loaded[i])
		return
	}
	for ; j < len(sk.poolKeys); j++ {
		if int64(sk.poolPos[j]) < ackedStart {
			chk.fail("scan from %d: %d of %d pairs, acked key %d missing", from, len(keys), n, sk.poolKeys[j])
			return
		}
	}
}

func runScan(o opts) (*report, error) {
	sz := scanSizes(o.small)
	sk := newScanKeys(sz.n, o.seed)
	vals := valuesOf(sk.loaded)
	budget := adaptiveBudget(sk.loaded, vals, 8)
	runtime.GC()
	ad := &adaptStats{}
	open := func(dir string, ob *ahi.Observability) (*ahi.BTree, *ahi.RecoveryStats, error) {
		return ahi.OpenBTree(ahi.BTreeOptions{
			MemoryBudget:    budget,
			ColdEncoding:    ahi.EncSuccinct,
			AsyncMigrations: true,
			OnAdapt:         ad.observe,
			Obs:             ob,
			Tracing:         &ahi.TracingConfig{}, // default 1/64 sampling
			Durability: &ahi.DurabilityOptions{
				Dir:             dir,
				SyncPolicy:      ahi.SyncInterval,
				SyncInterval:    5 * time.Millisecond,
				CheckpointEvery: sz.ckptEvery,
			},
		})
	}
	chk := &checker{}
	var (
		tree   *ahi.BTree
		ob     *ahi.Observability
		dir    string
		setups []float64
	)
	defer func() {
		if tree != nil {
			tree.Close()
		}
		os.RemoveAll(dir)
	}()
	ins := make([]bool, loadBatch)
	for i := 0; i < sz.setups; i++ {
		if tree != nil {
			tree.Close()
			tree = nil
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		dir = filepath.Join(o.workDir, fmt.Sprintf("scan-wal-%d", i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		ob = ahi.NewObservability()
		t0 := time.Now()
		var err error
		if tree, _, err = open(dir, ob); err != nil {
			return nil, fmt.Errorf("open durable index: %w", err)
		}
		s := tree.NewSession()
		for lo := 0; lo < len(sk.loaded); lo += loadBatch {
			hi := min(lo+loadBatch, len(sk.loaded))
			s.InsertBatch(sk.loaded[lo:hi], vals[lo:hi], ins[:hi-lo])
			for x, ok := range ins[:hi-lo] {
				if !ok {
					chk.fail("durable load: key %d not new", sk.loaded[lo+x])
				}
			}
		}
		chk.tally(int64(len(sk.loaded)))
		a := newScanClient(sk, tree, o.seed, 0x5eed)
		for b := 0; b < sz.warmScans; b++ {
			a.once(chk, nil, nil)
		}
		s.Flush()
		a.sess.Flush()
		tree.DrainMigrations()
		setups = append(setups, elapsedSince(t0))
	}
	vals = nil

	ad.reset()
	before := snapCounters(tree)
	walBefore := snapWAL(tree)
	flightBefore, droppedBefore := ob.Flight.Total(), ob.Flight.Dropped()
	var started, acked atomic.Int64
	t0 := time.Now()
	deadline := t0.Add(time.Duration(o.seconds * float64(time.Second)))
	w := newWindows(t0, o.seconds)
	w.sample(func() float64 { return bytesPerKey(tree) })
	a := newScanClient(sk, tree, o.seed, 0xa)
	a.win, a.calls, a.tr = make(counts, w.n), make(counts, w.n), newTracer(t0, 0)
	b := &writer{sk: sk, sess: tree.NewSession(), rng: rand.New(rand.NewPCG(uint64(o.seed), 0xb)),
		win: make(counts, w.n), tr: newTracer(t0, 1)}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		a.run(tree, o.trace, w, deadline, &started, &acked, chk)
	}()
	go func() {
		defer wg.Done()
		b.run(tree, o.trace, w, deadline, &started, &acked, chk)
	}()
	wg.Wait()
	a.sess.Flush()
	bpk := median(w.wait())
	delta := snapCounters(tree).sub(before)
	wd := snapWAL(tree).sub(walBefore)
	flightEvents, flightDropped := ob.Flight.Total()-flightBefore, ob.Flight.Dropped()-droppedBefore
	td := time.Now()
	tree.DrainMigrations()
	drain := time.Since(td)
	ls := newLayerSet()
	treeLayers(ls, delta, ad, int64(len(b.ins.ns)), budget, drain, tree)

	// Fixed replay tail: an explicit checkpoint, then tailInserts acked
	// inserts. A background checkpoint landing inside the tail would
	// shorten it, so the tail is redone after a fresh checkpoint.
	var ckpt time.Duration
	for attempt := 0; ; attempt++ {
		tc := time.Now()
		if err := tree.Checkpoint(); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		ckpt = time.Since(tc)
		n0 := settleCheckpoints(tree)
		b.tail(sz.tailInserts, &started, &acked, chk)
		if settleCheckpoints(tree) == n0 || attempt == 2 {
			break
		}
	}
	ckptBytes := tree.WALStats().CheckpointBytes.Load()
	b.sess.Flush()
	tree.Close()
	tree = nil
	runtime.GC()

	tr := time.Now()
	re, rec, err := open(dir, ahi.NewObservability())
	if err != nil {
		return nil, fmt.Errorf("reopen durable index: %w", err)
	}
	recoverS := time.Since(tr).Seconds()
	// Every loaded and every acked key must survive the reopen.
	sweepTree(re, sk.loaded, chk)
	sweepTree(re, sk.pool[:acked.Load()], chk)
	re.Close()

	inserts := int64(len(b.ins.ns))
	scanLat, insLat, lookLat := summarize(w, &a.lat), summarize(w, &b.ins), summarize(w, &b.look)
	pairsRate, callsA, callsB := rate(w, a.win), rate(w, a.calls), rate(w, b.win)
	insertRate := callsB / 2
	rep := &report{Workload: "scan-write-durable"}
	rep.E2E = endToEnd(setups, callsA+callsB, pairsRate+callsB, scanLat, bpk)
	rep.Details = []detail{
		{Name: "setup_s", Value: median(setups), Unit: "s", Samples: len(setups)},
		{Name: "scan_pairs_per_s", Value: pairsRate, Unit: "pairs/s"},
		{Name: "insert_per_s", Value: insertRate, Unit: "inserts/s"},
	}
	rep.Details = append(rep.Details, latencyDetails("lookup", lookLat)...)
	rep.Details = append(rep.Details, latencyDetails("insert", insLat)...)
	rep.Details = append(rep.Details, latencyDetails("scan", scanLat)...)
	rep.Details = append(rep.Details,
		detail{Name: "index_bytes_per_key", Value: bpk, Unit: "B/key"},
		detail{Name: "recover_s", Value: recoverS, Unit: "s"},
		detail{Name: "replayed_records", Value: float64(rec.Replayed), Unit: "count"},
		detail{Name: "pool_exhausted", Value: b2f(b.exhausted), Unit: "bool"},
	)
	rep.Details = append(rep.Details, w.details()...)
	if o.trace {
		walk := durations(spanWalk, b.tr)
		sess := durations(spanSessionLookup, b.tr)
		ls.set("btree.walk_ns", median(walk))
		ls.set("btree.session_ns", median(sess)-median(walk))
		ls.set("btree.scan_ns_per_pair", median(a.shadowNsPerPair))
		ls.set("wal.records_per_fsync", ratio(float64(wd.appends), float64(wd.fsyncs)))
		ls.set("wal.fsync_us", ratio(float64(wd.fsyncNs), float64(wd.fsyncs))/1e3)
		ls.set("wal.bytes_per_user_byte", ratio(float64(wd.bytes), float64(16*inserts)))
		ls.set("wal.checkpoints", float64(wd.checkpoints))
		ls.set("wal.checkpoint_bytes", float64(ckptBytes))
		ls.set("wal.checkpoint_ms", float64(ckpt.Nanoseconds())/1e6)
		ls.set("wal.replayed_records", float64(rec.Replayed))
		ls.set("wal.warm_start", b2f(rec.WarmStart))
		ls.set("wal.recover_ms", recoverS*1e3)
		ac, err := appendCommitNs(filepath.Join(o.workDir, "wal-append"), sz.appendRecords)
		if err != nil {
			return nil, err
		}
		ls.set("wal.append_commit_ns", ac)
		ls.set("obs.events_recorded", float64(flightEvents))
		ls.set("obs.events_dropped", float64(flightDropped))
		ls.set("obs.record_ns", recordNs(sz.recordOps))
		dns, dbytes := decodeNsPerPair(sk.loaded, o.seed, sz.decodes, chk)
		ls.set("bitutil.decode_ns_per_pair", dns)
		ls.set("bitutil.decode_bytes_per_pair", dbytes)
		ls.set("trace.overhead_pct", overheadPct(w, a.win))
		n, err := writeSpans(o, rep.Workload, a.tr, b.tr)
		if err != nil {
			return nil, err
		}
		ls.set("trace.spans", float64(n))
		rep.Layers = ls
	}
	chk.into(rep)
	rep.Details = append(rep.Details,
		detail{Name: "failed_frac", Value: ratio(float64(rep.Failed), float64(rep.Attempted)), Unit: "ratio"})
	return rep, nil
}

// settleCheckpoints waits until no checkpoint has completed for a while
// and returns the count. A background checkpoint triggered before the
// wait is then finished, and cannot cut its barrier inside the tail that
// follows; one the tail itself triggers shows as a changed count.
func settleCheckpoints(t *ahi.BTree) int64 {
	const quiet = 1500 * time.Millisecond // about three checkpoint durations
	n := t.WALStats().Checkpoints.Load()
	for since := time.Now(); time.Since(since) < quiet; time.Sleep(50 * time.Millisecond) {
		if c := t.WALStats().Checkpoints.Load(); c != n {
			n, since = c, time.Now()
		}
	}
	return n
}

// walCounters is a snapshot of the durable tree's log counters.
type walCounters struct {
	appends, bytes, fsyncs, fsyncNs, checkpoints int64
}

func snapWAL(t *ahi.BTree) walCounters {
	s := t.WALStats()
	if s == nil {
		return walCounters{}
	}
	return walCounters{s.Appends.Load(), s.AppendedBytes.Load(), s.Fsyncs.Load(), s.FsyncNsTotal.Load(), s.Checkpoints.Load()}
}

func (c walCounters) sub(o walCounters) walCounters {
	return walCounters{c.appends - o.appends, c.bytes - o.bytes, c.fsyncs - o.fsyncs, c.fsyncNs - o.fsyncNs, c.checkpoints - o.checkpoints}
}

// scanClient is client A.
type scanClient struct {
	sk     *scanKeys
	sess   *ahi.BTreeSession
	z      *workload.Zipf
	rng    *rand.Rand
	reqs   [scanReqs]ahi.ScanReq
	buf    ahi.ScanBuffer
	shadow ahi.ScanBuffer

	lat             series
	win             counts // pairs per window
	calls           counts // calls per window
	tr              *tracer
	tick            int
	req             uint64
	shadowNsPerPair []float64
}

func newScanClient(sk *scanKeys, tree *ahi.BTree, seed int64, stream uint64) *scanClient {
	return &scanClient{
		sk:   sk,
		sess: tree.NewSession(),
		z:    workload.NewZipf(len(sk.loaded), 0.99, seed*131+int64(stream)),
		rng:  rand.New(rand.NewPCG(uint64(seed), stream)),
	}
}

// once issues one checked ScanBatch and returns its start and end times.
// started and acked may be nil when no writer runs.
func (c *scanClient) once(chk *checker, started, acked *atomic.Int64) (t1, t2 time.Time, pairs int) {
	for r := range c.reqs {
		c.reqs[r] = ahi.ScanReq{From: c.sk.loaded[c.z.Draw()], N: scanMinLen + c.rng.IntN(scanMaxLen-scanMinLen+1)}
	}
	var ackedStart int64
	if acked != nil {
		ackedStart = acked.Load()
	}
	c.buf.Reset(scanReqs)
	t1 = time.Now()
	c.sess.ScanBatch(c.reqs[:], &c.buf)
	t2 = time.Now()
	startedEnd := ackedStart
	if started != nil {
		startedEnd = started.Load()
	}
	for r, q := range c.reqs {
		c.sk.verify(q.From, q.N, c.buf.Keys(r), c.buf.Vals(r), ackedStart, startedEnd, chk)
		pairs += c.buf.Len(r)
	}
	chk.tally(scanReqs)
	return t1, t2, pairs
}

func (c *scanClient) run(tree *ahi.BTree, trace bool, w *windows, deadline time.Time, started, acked *atomic.Int64, chk *checker) {
	for {
		t1, t2, pairs := c.once(chk, started, acked)
		if t1.After(deadline) {
			break
		}
		wi := w.index(t1)
		c.lat.add(wi, t2.Sub(t1))
		c.calls[wi]++
		c.win[wi] += float64(pairs)
		if !trace || wi&1 == 0 {
			continue
		}
		if c.tick%scanShadowEvery == 0 {
			c.shadowScan(tree, t1, t2, started, acked, chk)
		}
		c.tick++
	}
}

// shadowScan repeats the batch straight into Tree.ScanBatch (no session,
// no sampler) as a sibling span of the same request.
func (c *scanClient) shadowScan(tree *ahi.BTree, t1, t2 time.Time, started, acked *atomic.Int64, chk *checker) {
	c.req++
	c.tr.add(c.req, "btree.Session.ScanBatch", -1, t1, t2)
	ackedStart := acked.Load()
	c.shadow.Reset(scanReqs)
	t3 := time.Now()
	tree.Tree.ScanBatch(c.reqs[:], &c.shadow)
	t4 := time.Now()
	startedEnd := started.Load()
	c.tr.add(c.req, "btree.Tree.ScanBatch(shadow)", -1, t3, t4)
	pairs := 0
	for r, q := range c.reqs {
		c.sk.verify(q.From, q.N, c.shadow.Keys(r), c.shadow.Vals(r), ackedStart, startedEnd, chk)
		pairs += c.shadow.Len(r)
	}
	chk.tally(scanReqs)
	c.shadowNsPerPair = append(c.shadowNsPerPair, ratio(float64(t4.Sub(t3).Nanoseconds()), float64(pairs)))
}

// writer is client B.
type writer struct {
	sk        *scanKeys
	sess      *ahi.BTreeSession
	rng       *rand.Rand
	ins, look series
	win       counts // calls per window
	tr        *tracer
	tick      int
	req       uint64
	exhausted bool
}

// insertNext durably inserts the next pool key; false when the pool is
// exhausted.
func (b *writer) insertNext(started, acked *atomic.Int64, chk *checker) (t1, t2 time.Time, ok bool) {
	j := started.Load()
	if j >= int64(len(b.sk.pool)) {
		b.exhausted = true
		return t1, t2, false
	}
	k := b.sk.pool[j]
	started.Store(j + 1)
	t1 = time.Now()
	inserted := b.sess.Insert(k, valueOf(k))
	t2 = time.Now()
	acked.Store(j + 1)
	if !inserted {
		chk.fail("durable insert of pool key %d was not new", k)
	}
	return t1, t2, true
}

// lookupRecent looks up one of the writer's last lookupBack acked keys.
func (b *writer) lookupRecent(acked int64, chk *checker) (k uint64, t1, t2 time.Time) {
	k = b.sk.pool[acked-1-int64(b.rng.IntN(int(min(acked, lookupBack))))]
	t1 = time.Now()
	v, ok := b.sess.Lookup(k)
	t2 = time.Now()
	if !ok || v != valueOf(k) {
		chk.fail("lookup of acked key %d = (%d, %v)", k, v, ok)
	}
	return k, t1, t2
}

func (b *writer) run(tree *ahi.BTree, trace bool, w *windows, deadline time.Time, started, acked *atomic.Int64, chk *checker) {
	defer b.sess.Flush()
	var calls int64
	perTick := int(writerRate * writerTick / time.Second)
	next := time.Now()
	for n := 0; ; n++ {
		if n == perTick {
			n, next = 0, next.Add(writerTick)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			} else {
				next = time.Now()
			}
		}
		t1, t2, ok := b.insertNext(started, acked, chk)
		if !ok || t1.After(deadline) {
			break
		}
		wi := w.index(t1)
		b.ins.add(wi, t2.Sub(t1))
		k, t3, t4 := b.lookupRecent(acked.Load(), chk)
		b.look.add(wi, t4.Sub(t3))
		calls += 2
		b.win[wi] += 2
		if !trace || wi&1 == 0 {
			continue
		}
		if b.tick%writerShadowEvery == 0 {
			b.req++
			b.tr.add(b.req, spanSessionInsert, -1, t1, t2)
			b.req++
			b.tr.add(b.req, spanSessionLookup, -1, t3, t4)
			t5 := time.Now()
			v, ok := tree.Tree.Lookup(k)
			b.tr.add(b.req, spanWalk, -1, t5, time.Now())
			if !ok || v != valueOf(k) {
				chk.fail("shadow walk of acked key %d = (%d, %v)", k, v, ok)
			}
		}
		b.tick++
	}
	chk.tally(calls)
}

// tail performs n further acked inserts after the measured run.
func (b *writer) tail(n int, started, acked *atomic.Int64, chk *checker) {
	done := 0
	for ; done < n; done++ {
		if _, _, ok := b.insertNext(started, acked, chk); !ok {
			break
		}
	}
	chk.tally(int64(done))
}
