package main

import "testing"

// TestLayerExercise runs a short pass of each workload at reduced size
// and asserts that it does the work it was chosen for, that idle layers
// stay idle, and that every result checked out.
func TestLayerExercise(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	run := func(t *testing.T, fn func(opts) (*report, error)) *report {
		t.Helper()
		r, err := fn(opts{seed: 7, seconds: 1, trace: true, small: true, workDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range r.Details {
			t.Logf("%s %s = %v %s (n=%d)", r.Workload, d.Name, d.Value, d.Unit, d.Samples)
		}
		if r.Failed != 0 || len(r.Errors) != 0 || r.Attempted == 0 {
			t.Fatalf("attempted %d, failed %d: %v", r.Attempted, r.Failed, r.Errors)
		}
		for _, l := range layerUnits {
			if _, ok := r.Layers[l.name]; !ok {
				t.Errorf("layer metric %s missing", l.name)
			}
		}
		for _, k := range []string{"setup_s", "ops_per_s", "keys_per_s", "read_p50_us", "read_p99_us", "index_bytes_per_key"} {
			if r.E2E[k].Value <= 0 {
				t.Errorf("end-to-end %s = %v, want > 0", k, r.E2E[k].Value)
			}
		}
		return r
	}
	layer := func(r *report, name string) float64 { return r.Layers[name].Value }
	idle := func(t *testing.T, r *report, names ...string) {
		t.Helper()
		for _, n := range names {
			if v := layer(r, n); v != 0 {
				t.Errorf("%s: idle layer metric %s = %v, want 0", r.Workload, n, v)
			}
		}
	}
	walIdle := []string{"wal.checkpoints", "wal.records_per_fsync", "wal.bytes_per_user_byte", "obs.events_recorded"}
	cacheIdle := []string{"cache.hit_rate", "cache.admit_rate", "cache.evictions", "cache.invalidations", "cache.budget_share"}

	t.Run("point-zipf-shift", func(t *testing.T) {
		r := run(t, runPoint)
		if layer(r, "cache.hit_rate") <= 0 {
			t.Errorf("cache.hit_rate = %v, want > 0", layer(r, "cache.hit_rate"))
		}
		if layer(r, "core.migrations") <= 0 {
			t.Errorf("core.migrations = %v, want > 0", layer(r, "core.migrations"))
		}
		idle(t, r, walIdle...)
	})
	t.Run("batch-uniform-sharded", func(t *testing.T) {
		r := run(t, runBatch)
		if layer(r, "btree.negfilter_hit_frac") <= 0 {
			t.Errorf("btree.negfilter_hit_frac = %v, want > 0", layer(r, "btree.negfilter_hit_frac"))
		}
		idle(t, r, walIdle...)
		idle(t, r, cacheIdle...)
	})
	t.Run("scan-write-durable", func(t *testing.T) {
		r := run(t, runScan)
		if layer(r, "wal.checkpoints") < 2 {
			t.Errorf("wal.checkpoints = %v, want >= 2", layer(r, "wal.checkpoints"))
		}
		if layer(r, "wal.warm_start") != 1 {
			t.Errorf("wal.warm_start = %v, want 1", layer(r, "wal.warm_start"))
		}
		if layer(r, "obs.events_recorded") <= 0 {
			t.Errorf("obs.events_recorded = %v, want > 0", layer(r, "obs.events_recorded"))
		}
		for _, d := range r.Details {
			if d.Name == "pool_exhausted" && d.Value != 0 {
				t.Errorf("the writer exhausted its key pool")
			}
		}
		idle(t, r, cacheIdle...)
	})
}
