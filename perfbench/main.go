// Command perfbench is the repository's benchmark: three closed-loop
// workloads driven through the public ahi API, every result checked, with
// an untraced run for the end-to-end metrics and a separate traced run for
// the per-layer metrics. See README.md for the workloads, the metrics and
// what each layer metric is expected to move.
//
//	go run . --workload point-zipf-shift --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// ConfirmSeed is reserved for confirming a claimed change: tune and
// explore on other seeds, then confirm on this one.
const ConfirmSeed = 1_000_003

// opts are the settings of one workload run.
type opts struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string // spans and result records go here ("" = not written)
	workDir string // scratch directories (write-ahead logs) go here
	small   bool   // reduced sizes for the self-check test
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail is a workload-specific end-to-end figure printed for readers:
// the per-workload names (lookup_p99_us, insert_per_s, recover_s, ...)
// with the sample count behind each percentile.
type detail struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// report is what a workload run produces.
type report struct {
	Workload  string            `json:"workload"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	E2E       map[string]metric `json:"end_to_end,omitempty"`
	Layers    map[string]metric `json:"per_layer,omitempty"`
	Details   []detail          `json:"details"`
	Record    runRecord         `json:"record"`
}

// runRecord identifies the code, host and settings behind a result.
type runRecord struct {
	Commit     string  `json:"commit"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

// workloadDef names a workload; README.md gives the reason for each.
type workloadDef struct {
	name string
	run  func(o opts) (*report, error)
}

var workloads = []workloadDef{
	{"point-zipf-shift", runPoint},
	{"batch-uniform-sharded", runBatch},
	{"scan-write-durable", runScan},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or \"all\" to run every workload in this process")
		seed    = flag.Int64("seed", 1, fmt.Sprintf("input seed (%d is reserved for confirming claims)", ConfirmSeed))
		seconds = flag.Float64("seconds", 10, "measured seconds per workload")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		outDir  = flag.String("out", ".bench_build/out", "directory for span files and result records")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	o := opts{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir, workDir: filepath.Join(*outDir, "work")}
	var defs []workloadDef
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			defs = append(defs, w)
		}
	}
	if len(defs) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s, all)\n", *name, workloadNames())
		os.Exit(2)
	}
	var reps []*report
	for _, w := range defs {
		rep, err := w.run(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		rep.Record = newRecord(o)
		printReport(rep, o)
		if err := saveReport(rep, o); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		reps = append(reps, rep)
		runtime.GC()
	}
	fmt.Println(resultLine(reps, o.trace))
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

func newRecord(o opts) runRecord {
	return runRecord{
		Commit:     commit(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
	}
}

// commit is the VCS revision stamped into the binary at build time, or
// "unknown" when it was built outside a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}

// printReport writes the human-readable block of one workload.
func printReport(r *report, o opts) {
	rec := r.Record
	fmt.Printf("# %s  seed=%d seconds=%g trace=%v commit=%s nproc=%d GOMAXPROCS=%d %s\n",
		r.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Commit, rec.NProc, rec.GOMAXPROCS, rec.GoVersion)
	for _, d := range r.Details {
		if d.Samples > 0 {
			fmt.Printf("  %-24s %14.4f %-9s (n=%d)\n", d.Name, d.Value, d.Unit, d.Samples)
		} else {
			fmt.Printf("  %-24s %14.4f %s\n", d.Name, d.Value, d.Unit)
		}
	}
	if o.trace {
		for _, k := range sortedKeys(r.Layers) {
			fmt.Printf("  %-28s %14.4f %s\n", k, r.Layers[k].Value, r.Layers[k].Unit)
		}
	}
	fmt.Printf("  attempted=%d failed=%d\n", r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Printf("  error: %s\n", e)
	}
}

func saveReport(r *report, o opts) error {
	if o.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return fmt.Errorf("result dir: %w", err)
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	mode := "e2e"
	if o.trace {
		mode = "traced"
	}
	p := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-%s.json", r.Workload, o.seed, mode))
	return os.WriteFile(p, b, 0o644)
}

// resultLine renders the final JSON line. With one workload its metrics
// keep their plain names; with several, names are prefixed by workload.
func resultLine(reps []*report, traced bool) string {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, r := range reps {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		if r.Failed > 0 || len(r.Errors) > 0 {
			out.Correct = false
		}
		ms := r.E2E
		if traced {
			ms = r.Layers
		}
		for k, v := range ms {
			if len(reps) > 1 {
				k = r.Workload + "." + k
			}
			out.Metrics[k] = v
		}
	}
	b, _ := json.Marshal(out) // plain structs of floats and strings: cannot fail
	return string(b)
}

func sortedKeys(m map[string]metric) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// elapsedSince is a float-seconds helper for set-up timings.
func elapsedSince(t time.Time) float64 { return time.Since(t).Seconds() }
