package main

import (
	"bufio"
	"cmp"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"ahi/internal/btree"
)

// valueOf derives a key's value, so every returned value can be checked
// without a side table.
func valueOf(k uint64) uint64 { return k ^ 0x9E3779B97F4A7C15 }

func valuesOf(keys []uint64) []uint64 {
	vals := make([]uint64, len(keys))
	for i, k := range keys {
		vals[i] = valueOf(k)
	}
	return vals
}

// adaptiveBudget is the repository's budget rule: the Succinct size plus
// 1/div of the Gapped–Succinct difference.
func adaptiveBudget(keys, vals []uint64, div int64) int64 {
	succ := btree.BulkLoad(btree.Config{DefaultEncoding: btree.EncSuccinct}, keys, vals).Bytes()
	gap := btree.BulkLoad(btree.Config{DefaultEncoding: btree.EncGapped}, keys, vals).Bytes()
	return succ + (gap-succ)/div
}

// m builds a metric; non-finite values (an empty ratio) report as 0.
func m(v float64, unit string) metric {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	return metric{Value: v, Unit: unit}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// checker counts attempted and failed operations and keeps the first few
// failure descriptions. Safe for concurrent use.
type checker struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	errs      []string
}

// tally counts checked operations.
func (c *checker) tally(attempted int64) {
	c.mu.Lock()
	c.attempted += attempted
	c.mu.Unlock()
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	c.failed++
	if len(c.errs) < 8 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

func (c *checker) into(r *report) {
	r.Attempted, r.Failed, r.Errors = c.attempted, c.failed, c.errs
}

// windows splits a measured run into fixed windows. Throughput and
// latency are computed per window, and each metric is the median across
// the kept windows. The first, warming window and the last, partial one
// are never kept. Nor is a window in which the hypervisor took more than
// stealMax of the VM's CPU time (the steal column of /proc/stat): on a
// shared host a stolen vCPU stalls the clients until it runs again, so
// such a window measures the neighbours, not the program. In a traced
// run odd windows are traced and even ones are not, so the tracing
// overhead is measured inside one process on the same index state.
type windows struct {
	start time.Time
	width time.Duration
	n     int
	steal []float64 // per window: stolen share of the VM's CPU time
	bpk   []float64 // per window: index bytes per key at its end
	keep  []int     // the windows the metrics are taken over, ascending
	done  chan struct{}
}

const (
	// stealMax is the stolen share of CPU time above which a window is
	// dropped: more than 1 of the 100 ticks two vCPUs count in 0.5 s.
	// /proc/stat counts in whole ticks, so a window at or below it lost
	// at most about 20 ms.
	stealMax = 0.015
	// keepMin is the share of full windows kept even when more are
	// stolen: the least stolen ones.
	keepMin = 1.0 / 3
)

func newWindows(start time.Time, seconds float64) *windows {
	w := &windows{start: start, width: 500 * time.Millisecond}
	w.n = int(time.Duration(seconds*float64(time.Second))/w.width) + 1
	w.steal = make([]float64, w.n)
	w.bpk = make([]float64, w.n)
	return w
}

func (w *windows) index(now time.Time) int {
	return min(int(now.Sub(w.start)/w.width), w.n-1)
}

// full returns the range of windows that may be kept.
func (w *windows) full() (lo, hi int) {
	if w.n < 3 {
		return 0, w.n // too short to drop any
	}
	return 1, w.n - 1
}

// sample starts a goroutine that, at the end of every window until the
// run's last window starts, reads the CPU time stolen in it and calls
// bytesPerKey. wait must be called once the run ends.
func (w *windows) sample(bytesPerKey func() float64) {
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		steal0, total0, ok := readSteal()
		for i := 0; i < w.n-1; i++ {
			time.Sleep(time.Until(w.start.Add(time.Duration(i+1) * w.width)))
			w.bpk[i] = bytesPerKey()
			if steal, total, ok1 := readSteal(); ok && ok1 && total > total0 {
				w.steal[i] = float64(steal-steal0) / float64(total-total0)
				steal0, total0 = steal, total
			}
		}
	}()
}

// wait waits for the sampler to exit, chooses the kept windows and
// returns the bytes-per-key samples of the full windows.
func (w *windows) wait() []float64 {
	<-w.done
	lo, hi := w.full()
	var calm, all []int
	for i := lo; i < hi; i++ {
		all = append(all, i)
		if w.steal[i] <= stealMax {
			calm = append(calm, i)
		}
	}
	w.keep = calm
	if need := int(math.Ceil(keepMin * float64(len(all)))); len(calm) < need {
		slices.SortStableFunc(all, func(a, b int) int { return cmp.Compare(w.steal[a], w.steal[b]) })
		w.keep = all[:need]
		slices.Sort(w.keep)
	}
	return w.bpk[lo:hi]
}

// details reports how many windows were kept and the stolen share of
// CPU time over the full windows.
func (w *windows) details() []detail {
	lo, hi := w.full()
	return []detail{
		{Name: "windows_kept", Value: float64(len(w.keep)), Unit: "count", Samples: hi - lo},
		{Name: "steal_pct", Value: 100 * mean(w.steal[lo:hi]), Unit: "%"},
	}
}

// readSteal returns the stolen and the total CPU ticks of the VM since
// boot, from the first line of /proc/stat (false where it is missing).
func readSteal() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user and nice.
	for i, x := range f[1:9] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// counts is one client's work per window.
type counts []float64

// rate is the median over kept windows of the clients' summed work per
// second.
func rate(w *windows, cs ...counts) float64 {
	var rs []float64
	for _, i := range w.keep {
		var sum float64
		for _, c := range cs {
			sum += c[i]
		}
		rs = append(rs, sum/w.width.Seconds())
	}
	return median(rs)
}

// overheadPct compares the median rate of the kept untraced windows with
// that of the kept traced ones. When the kept windows hold only one kind,
// it compares all full windows instead.
func overheadPct(w *windows, cs ...counts) float64 {
	split := func(idx []int) (plain, traced []float64) {
		for _, i := range idx {
			var sum float64
			for _, c := range cs {
				sum += c[i]
			}
			if i%2 == 1 {
				traced = append(traced, sum)
			} else {
				plain = append(plain, sum)
			}
		}
		return plain, traced
	}
	plain, traced := split(w.keep)
	if len(plain) == 0 || len(traced) == 0 {
		lo, hi := w.full()
		var all []int
		for i := lo; i < hi; i++ {
			all = append(all, i)
		}
		plain, traced = split(all)
	}
	return (ratio(median(plain), median(traced)) - 1) * 100
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// quantile interpolates quantile q of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// series is one client's latencies of one call type in call order, with
// the index of each window's first sample.
type series struct {
	ns    []uint32
	start []int
}

func (s *series) add(w int, d time.Duration) {
	for len(s.start) <= w {
		s.start = append(s.start, len(s.ns))
	}
	ns := d.Nanoseconds()
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	s.ns = append(s.ns, uint32(ns))
}

// window returns the samples recorded in window w.
func (s *series) window(w int) []uint32 {
	if w >= len(s.start) {
		return nil
	}
	hi := len(s.ns)
	if w+1 < len(s.start) {
		hi = s.start[w+1]
	}
	return s.ns[s.start[w]:hi]
}

// latency is a call type's median and p99 in microseconds: each is the
// median across kept windows of that window's quantile over every
// client's calls. n counts all samples.
type latency struct {
	p50, p99 float64
	n        int
}

func summarize(w *windows, ss ...*series) latency {
	var l latency
	for _, s := range ss {
		l.n += len(s.ns)
	}
	var p50s, p99s []float64
	var buf []uint32
	for _, i := range w.keep {
		buf = buf[:0]
		for _, s := range ss {
			buf = append(buf, s.window(i)...)
		}
		if len(buf) == 0 {
			continue
		}
		slices.Sort(buf)
		p50s = append(p50s, quantileUs(buf, 0.50))
		p99s = append(p99s, quantileUs(buf, 0.99))
	}
	l.p50, l.p99 = median(p50s), median(p99s)
	return l
}

// quantileUs returns quantile q of sorted nanosecond samples in µs.
func quantileUs(sorted []uint32, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i]) / 1e3
}

// endToEnd builds the gated metrics every workload reports.
func endToEnd(setups []float64, ops, keys float64, read latency, bytesPerKey float64) map[string]metric {
	return map[string]metric{
		"setup_s":             m(median(setups), "s"),
		"ops_per_s":           m(ops, "ops/s"),
		"keys_per_s":          m(keys, "keys/s"),
		"read_p50_us":         m(read.p50, "us"),
		"read_p99_us":         m(read.p99, "us"),
		"index_bytes_per_key": m(bytesPerKey, "B/key"),
	}
}

// latencyDetails reports a latency as name_p50_us/name_p99_us.
func latencyDetails(name string, l latency) []detail {
	return []detail{
		{Name: name + "_p50_us", Value: l.p50, Unit: "us", Samples: l.n},
		{Name: name + "_p99_us", Value: l.p99, Unit: "us", Samples: l.n},
	}
}

// span is one timed call the benchmark made into a layer. A client call
// and the shadow calls repeating its input share a request id; a shadow is
// a sibling of the call (no parent), and the per-shard parts of a sharded
// shadow name that shadow as their parent.
type span struct {
	Req    uint64
	Name   string
	Parent int32 // index within the same tracer, -1 for none
	Start  time.Duration
	End    time.Duration
}

// tracer keeps one client's spans in memory until the run ends.
type tracer struct {
	t0     time.Time
	client int
	spans  []span
}

func newTracer(t0 time.Time, client int) *tracer { return &tracer{t0: t0, client: client} }

// add records a span and returns its index.
func (t *tracer) add(req uint64, name string, parent int32, start, end time.Time) int32 {
	t.spans = append(t.spans, span{Req: req, Name: name, Parent: parent, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return int32(len(t.spans) - 1)
}

// end sets the end of a span added before its children.
func (t *tracer) end(i int32, end time.Time) { t.spans[i].End = end.Sub(t.t0) }

// durations returns the durations (ns) of spans with this name.
func durations(name string, ts ...*tracer) []float64 {
	var out []float64
	for _, t := range ts {
		for _, s := range t.spans {
			if s.Name == name {
				out = append(out, float64(s.End-s.Start))
			}
		}
	}
	return out
}

// writeSpans writes every client's spans as JSON lines:
// {"client","req","id","name","parent","start_ns","end_ns"}.
func writeSpans(o opts, workload string, ts ...*tracer) (int, error) {
	n := 0
	for _, t := range ts {
		n += len(t.spans)
	}
	if o.outDir == "" {
		return n, nil
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return n, fmt.Errorf("span dir: %w", err)
	}
	f, err := os.Create(filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-spans.jsonl", workload, o.seed)))
	if err != nil {
		return n, fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, t := range ts {
		for i, s := range t.spans {
			fmt.Fprintf(w, `{"client":%d,"req":%d,"id":%d,"name":%q,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
				t.client, s.Req, i, s.Name, s.Parent, s.Start.Nanoseconds(), s.End.Nanoseconds())
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, fmt.Errorf("span file: %w", err)
	}
	return n, f.Close()
}
