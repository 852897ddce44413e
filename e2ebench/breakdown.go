package main

import "fmt"

// printBreakdown prints, for a traced run, where the server's CPU went:
// each layer's probe cost times the count the server scraped for it,
// against proc.server_cpu_s. It is the check that a workload stresses the
// layers it is said to stress and bypasses the ones it is said to bypass.
// Probe costs come from this process after the server has gone, with both
// cores free, so the shares are estimates; the unexplained remainder is the
// wire, the scheduler, GC and cache misses the probes do not see.
func printBreakdown(res *result, w spec) {
	v := func(name string) float64 { return res.Metrics[name].Value }
	cpu := v("proc.server_cpu_s")
	if cpu <= 0 {
		return
	}
	events, queries := v("core.events_applied"), v("core.queries_served")
	// Scan cost per record and query at the observed batch size, between the
	// probe's batch-of-1 and batch-of-8 costs.
	share := (v("core.queries_per_round") - 1) / 7
	if share < 0 {
		share = 0
	}
	if share > 1 {
		share = 1
	}
	scanNs := v("query.scan_ns_per_record_b1") + share*(v("query.scan_ns_per_record_b8")-v("query.scan_ns_per_record_b1"))
	sch, _ := buildSchema(w.Full)
	matrixMB := float64(w.Entities) * float64(sch.RecordBytes()) / (1 << 20)
	ckpt := 0.0
	if rate := v("checkpoint.write_mb_per_s"); rate > 0 {
		ckpt = v("checkpoint.runs") * matrixMB / rate
	}
	wal := 0.0
	if v("archive.bytes_per_event") > 0 { // the server logged to a WAL
		wal = v("archive.append_ns_per_event") * events / 1e9
	}
	rows := []struct {
		layer string
		secs  float64
		how   string
	}{
		{"core apply (schema+rules+delta)", v("core.apply_ns_per_event") * events / 1e9, "core.apply_ns_per_event x core.events_applied"},
		{"  of which schema", (v("schema.ingest_ns_per_event") + v("schema.materialize_ns_per_event")) * events / 1e9, "(ingest+materialize) x events"},
		{"  of which rules", v("rules.eval_ns_per_event") * events / 1e9, "rules.eval_ns_per_event x events"},
		{"core merge (columnmap upsert)", v("core.merge_ns_per_record") * v("core.merged_records") / 1e9, "core.merge_ns_per_record x core.merged_records"},
		{"columnmap freeze", v("columnmap.freeze_us_per_bucket") * v("columnmap.freezes") / 1e6, "columnmap.freeze_us_per_bucket x columnmap.freezes (thaws not probed)"},
		{"query scan (query+vec+columnmap)", scanNs * float64(w.Entities) * queries / 1e9, "scan_ns_per_record x entities x core.queries_served"},
		{"archive append", wal, "archive.append_ns_per_event x events (0 without a WAL)"},
		{"checkpoint write", ckpt, "checkpoint.runs x matrix MB / write_mb_per_s"},
	}
	fmt.Printf("   server CPU by layer (probe cost x scraped count), of proc.server_cpu_s = %.2f s:\n", cpu)
	explained := 0.0
	for _, r := range rows {
		fmt.Printf("     %-34s %7.3f s  %5.1f%%   %s\n", r.layer, r.secs, 100*r.secs/cpu, r.how)
		if r.layer[0] != ' ' {
			explained += r.secs
		}
	}
	fmt.Printf("     %-34s %7.3f s  %5.1f%%\n", "explained", explained, 100*explained/cpu)
}
