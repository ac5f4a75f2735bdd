package main

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ahi"
	"ahi/internal/dataset"
	"ahi/internal/workload"
)

// point-zipf-shift: the paper's headline regime. Two clients, each with
// its own session, issue 95% Lookup and 5% same-value Insert overwrites
// of keys drawn Zipf(0.99) over rank; the hot range moves by n/4 every
// phaseOps operations, four phases in a cycle.

type pointSize struct {
	n, warmOps int
	phaseOps   int64
	setups     int
}

func pointSizes(small bool) pointSize {
	if small {
		return pointSize{n: 200_000, warmOps: 20_000, phaseOps: 50_000, setups: 2}
	}
	return pointSize{n: 4_000_000, warmOps: 400_000, phaseOps: 1_000_000, setups: 5}
}

const (
	pointClients     = 2
	pointInsertPct   = 5
	pointShadowEvery = 64 // 1 in N traced-window lookups gets a shadow walk
)

func runPoint(o opts) (*report, error) {
	sz := pointSizes(o.small)
	keys := dataset.YCSBKeys(sz.n, o.seed)
	vals := valuesOf(keys)
	budget := adaptiveBudget(keys, vals, 8)
	runtime.GC()
	ad := &adaptStats{}
	opt := ahi.BTreeOptions{
		MemoryBudget:    budget,
		ColdEncoding:    ahi.EncSuccinct,
		CacheFraction:   0.05,
		AsyncMigrations: true,
		OnAdapt:         ad.observe,
	}
	chk := &checker{}

	// Set up several times and report the median; the last tree is used.
	var tree *ahi.BTree
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		if tree != nil {
			tree.Close()
			tree = nil
			runtime.GC()
		}
		t0 := time.Now()
		tree = ahi.BulkLoadBTree(opt, keys, vals)
		pointWarm(tree, keys, sz, o.seed, chk)
		tree.DrainMigrations()
		setups = append(setups, elapsedSince(t0))
	}
	defer tree.Close()

	ad.reset()
	before := snapCounters(tree)
	var phaseCtr atomic.Int64
	t0 := time.Now()
	deadline := t0.Add(time.Duration(o.seconds * float64(time.Second)))
	w := newWindows(t0, o.seconds)
	w.sample(func() float64 { return bytesPerKey(tree) })
	clients := make([]*pointClient, pointClients)
	var wg sync.WaitGroup
	for c := range clients {
		pc := &pointClient{id: c, win: make(counts, w.n), tr: newTracer(t0, c)}
		clients[c] = pc
		wg.Add(1)
		go func() {
			defer wg.Done()
			pc.run(tree, keys, sz, o, &phaseCtr, w, deadline, chk)
		}()
	}
	wg.Wait()
	bpk := median(w.wait())
	delta := snapCounters(tree).sub(before)
	td := time.Now()
	tree.DrainMigrations()
	drain := time.Since(td)

	// Adaptation changes structure, never contents: sweep every key.
	sweepTree(tree, keys, chk)

	var inserts int64
	var looks, ins []*series
	var tracers []*tracer
	var wins []counts
	for _, c := range clients {
		inserts += int64(len(c.ins.ns))
		looks, ins = append(looks, &c.look), append(ins, &c.ins)
		tracers, wins = append(tracers, c.tr), append(wins, c.win)
	}
	look, insAll := summarize(w, looks...), summarize(w, ins...)
	opsRate := rate(w, wins...)
	rep := &report{Workload: "point-zipf-shift"}
	chk.into(rep)
	rep.E2E = endToEnd(setups, opsRate, opsRate, look, bpk)
	rep.Details = append([]detail{
		{Name: "setup_s", Value: median(setups), Unit: "s", Samples: len(setups)},
		{Name: "ops_per_s", Value: opsRate, Unit: "ops/s"},
	}, latencyDetails("lookup", look)...)
	rep.Details = append(rep.Details, latencyDetails("insert", insAll)...)
	rep.Details = append(rep.Details,
		detail{Name: "index_bytes_per_key", Value: bpk, Unit: "B/key"},
		detail{Name: "failed_frac", Value: ratio(float64(rep.Failed), float64(rep.Attempted)), Unit: "ratio"},
		detail{Name: "workload_phases", Value: float64(phaseCtr.Load() / sz.phaseOps), Unit: "count"},
	)
	rep.Details = append(rep.Details, w.details()...)
	if o.trace {
		ls := newLayerSet()
		treeLayers(ls, delta, ad, inserts, budget, drain, tree)
		walk := durations(spanWalk, tracers...)
		sess := durations(spanSessionLookup, tracers...)
		ls.set("btree.walk_ns", median(walk))
		ls.set("btree.session_ns", median(sess)-median(walk))
		ls.set("trace.overhead_pct", overheadPct(w, wins...))
		n, err := writeSpans(o, rep.Workload, tracers...)
		if err != nil {
			return nil, err
		}
		ls.set("trace.spans", float64(n))
		rep.Layers = ls
	}
	return rep, nil
}

const (
	spanSessionLookup = "btree.Session.Lookup"
	spanSessionInsert = "btree.Session.Insert"
	spanWalk          = "btree.Tree.Lookup(shadow)"
)

// pointWarm runs a fixed single-session warm-up of the same mix on the
// first phase, checking every result.
func pointWarm(tree *ahi.BTree, keys []uint64, sz pointSize, seed int64, chk *checker) {
	s := tree.NewSession()
	z := workload.NewZipf(len(keys), 0.99, seed^0x5eed)
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	for i := 0; i < sz.warmOps; i++ {
		k := keys[z.Draw()]
		if rng.IntN(100) < pointInsertPct {
			if s.Insert(k, valueOf(k)) {
				chk.fail("warm-up overwrite of %d inserted a new key", k)
			}
		} else if v, ok := s.Lookup(k); !ok || v != valueOf(k) {
			chk.fail("warm-up lookup %d = (%d, %v)", k, v, ok)
		}
	}
	s.Flush()
	chk.tally(int64(sz.warmOps))
}

type pointClient struct {
	id        int
	ops       int64
	look, ins series
	win       counts
	tr        *tracer
}

func (c *pointClient) run(tree *ahi.BTree, keys []uint64, sz pointSize, o opts, phaseCtr *atomic.Int64,
	w *windows, deadline time.Time, chk *checker) {
	s := tree.NewSession()
	defer s.Flush()
	n := len(keys)
	shift := n / 4
	z := workload.NewZipf(n, 0.99, o.seed*31+int64(c.id)+1)
	rng := rand.New(rand.NewPCG(uint64(o.seed), uint64(c.id)+1))
	phase, tick := 0, 0
	var req uint64
	for i := 0; ; i++ {
		if i&255 == 0 {
			phase = int(phaseCtr.Add(256) / sz.phaseOps % 4)
		}
		idx := z.Draw() + phase*shift
		if idx >= n {
			idx -= n
		}
		k := keys[idx]
		insert := rng.IntN(100) < pointInsertPct
		t1 := time.Now()
		if t1.After(deadline) {
			break
		}
		wi := w.index(t1)
		traced := o.trace && wi&1 == 1
		if insert {
			ins := s.Insert(k, valueOf(k))
			t2 := time.Now()
			c.ins.add(wi, t2.Sub(t1))
			if ins {
				chk.fail("overwrite of %d inserted a new key", k)
			}
			if traced && tick%pointShadowEvery == 0 {
				req++
				c.tr.add(req, spanSessionInsert, -1, t1, t2)
			}
		} else {
			v, ok := s.Lookup(k)
			t2 := time.Now()
			c.look.add(wi, t2.Sub(t1))
			if !ok || v != valueOf(k) {
				chk.fail("lookup %d = (%d, %v)", k, v, ok)
			}
			if traced && tick%pointShadowEvery == 0 {
				req++
				c.tr.add(req, spanSessionLookup, -1, t1, t2)
				t3 := time.Now()
				v2, ok2 := tree.Tree.Lookup(k)
				c.tr.add(req, spanWalk, -1, t3, time.Now())
				if !ok2 || v2 != valueOf(k) {
					chk.fail("shadow walk %d = (%d, %v)", k, v2, ok2)
				}
			}
		}
		if traced {
			tick++
		}
		c.win[wi]++
		c.ops++
	}
	chk.tally(c.ops)
}

// sweepTree checks that every key is present with its value, through the
// untracked batch path.
func sweepTree(tree *ahi.BTree, keys []uint64, chk *checker) {
	const chunk = 4096
	vals := make([]uint64, chunk)
	found := make([]bool, chunk)
	for lo := 0; lo < len(keys); lo += chunk {
		ks := keys[lo:min(lo+chunk, len(keys))]
		tree.Tree.LookupBatch(ks, vals[:len(ks)], found[:len(ks)])
		for i, k := range ks {
			if !found[i] || vals[i] != valueOf(k) {
				chk.fail("sweep: key %d = (%d, %v)", k, vals[i], found[i])
			}
		}
	}
	chk.tally(int64(len(keys)))
}
