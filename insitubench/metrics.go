package main

import (
	"fmt"
	"time"
)

const mib = 1 << 20

// endToEnd computes the metrics a user sees, over the untraced timed phase.
// Timings are medians over many samples within the run.
func endToEnd(r *recorder) map[string]metric {
	var lat, walls, firsts, heaps []float64
	for i := range r.samples {
		if s := &r.samples[i]; s.phase == phaseUntraced {
			lat = append(lat, ms(s.latency()))
		}
	}
	for _, p := range r.passes {
		if p.phase == phaseUntraced {
			walls = append(walls, p.wall.Seconds())
			firsts = append(firsts, ms(p.firstAnswer))
			heaps = append(heaps, float64(p.heapBytes)/mib)
		}
	}
	var setups []float64
	for _, d := range r.setups {
		setups = append(setups, d.Seconds())
	}
	fmt.Printf("samples: %d set-ups, %d timed passes, %d timed queries (%d beyond p90)\n",
		len(setups), len(walls), len(lat), len(lat)/10)
	correct := 0.0
	if r.attempted > 0 {
		correct = float64(r.matched) / float64(r.attempted)
	}
	return map[string]metric{
		"setup_s":          {median(setups), "s"},
		"data_to_answer_s": {median(walls), "s"},
		"first_answer_ms":  {median(firsts), "ms"},
		"query_p50_ms":     {quantile(lat, 0.5), "ms"},
		"query_p90_ms":     {quantile(lat, 0.9), "ms"},
		"heap_mb":          {median(heaps), "MiB"},
		"correct_frac":     {correct, "ratio"},
	}
}

// perLayer computes the per-layer metrics of the traced phase: medians of
// the benchmark's own spans around each API call, per-query means of the
// QueryStats categories and counters (the categories add up worker CPU, so
// they are CPU time, not wall time), and deltas of the runtime's and the
// scheduler's counters.
func perLayer(r *recorder, e *env, probe time.Duration) map[string]metric {
	var open, first, drain, closing, refresh, traced, untraced []float64
	var wall time.Duration
	var steals uint64
	maxDepth := 0
	for i := range r.samples {
		s := &r.samples[i]
		if s.phase == phaseUntraced {
			untraced = append(untraced, ms(s.latency()))
		}
		if s.phase != phaseTraced {
			continue
		}
		traced = append(traced, ms(s.latency()))
		open = append(open, ms(s.open))
		first = append(first, ms(s.firstRow))
		drain = append(drain, ms(s.drain))
		closing = append(closing, ms(s.close))
		if s.refresh > 0 {
			refresh = append(refresh, ms(s.refresh))
		}
		wall += s.latency()
		steals += s.steals
		maxDepth = max(maxDepth, s.maxDepth)
	}
	sum, n := &r.sums[phaseTraced], len(traced)
	perQuery := func(v int64) float64 { return float64(v) / float64(max(n, 1)) }
	cpuMs := func(d time.Duration) float64 { return ms(d) / float64(max(n, 1)) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	scanCPU := sum.IO + sum.Tokenizing + sum.Parsing + sum.Convert + sum.NoDB
	gcs := (e.memAfter.NumGC - e.memAfter.NumForcedGC) - (e.memBefore.NumGC - e.memBefore.NumForcedGC)
	overhead := ratio(quantile(traced, 0.5), quantile(untraced, 0.5)) - 1
	fmt.Printf("traced phase: %d queries; untraced phase: %d queries\n", n, len(untraced))
	return map[string]metric{
		"nodb.query_open_ms":         {quantile(open, 0.5), "ms"},
		"nodb.first_row_ms":          {quantile(first, 0.5), "ms"},
		"nodb.drain_ms":              {quantile(drain, 0.5), "ms"},
		"nodb.close_ms":              {quantile(closing, 0.5), "ms"},
		"nodb.plan_cache_hit_frac":   {perQuery(sum.PlanCacheHits), "ratio"},
		"rawfile.io_cpu_ms":          {cpuMs(sum.IO), "ms"},
		"rawfile.tokenize_cpu_ms":    {cpuMs(sum.Tokenizing), "ms"},
		"rawfile.bytes_read":         {perQuery(sum.BytesRead), "bytes/query"},
		"rawfile.bytes_skipped":      {perQuery(sum.BytesSkipped), "bytes/query"},
		"rawfile.fields_tokenized":   {perQuery(sum.FieldsTokenized), "count/query"},
		"core.parse_cpu_ms":          {cpuMs(sum.Parsing), "ms"},
		"core.convert_cpu_ms":        {cpuMs(sum.Convert), "ms"},
		"core.fields_converted":      {perQuery(sum.FieldsConverted), "count/query"},
		"core.rows_scanned":          {perQuery(sum.RowsScanned), "count/query"},
		"core.nodb_cpu_ms":           {cpuMs(sum.NoDB), "ms"},
		"core.scan_cpu_per_wall":     {ratio(float64(scanCPU), float64(wall)), "ratio"},
		"posmap.jump_fields":         {perQuery(sum.MapJumpFields), "count/query"},
		"posmap.near_fields":         {perQuery(sum.MapNearFields), "count/query"},
		"posmap.used_mb":             {float64(r.posmapBytes) / mib, "MiB"},
		"rawcache.hit_fields":        {perQuery(sum.CacheHitFields), "count/query"},
		"rawcache.hit_frac":          {ratio(float64(sum.CacheHitFields), float64(sum.CacheHitFields+sum.FieldsConverted)), "ratio"},
		"rawcache.used_mb":           {float64(r.cacheBytes) / mib, "MiB"},
		"sched.tasks":                {perQuery(sum.SchedTasks), "count/query"},
		"sched.steals":               {float64(steals) / float64(max(n, 1)), "count/query"},
		"sched.max_depth":            {float64(maxDepth), "count"},
		"engine.processing_cpu_ms":   {cpuMs(sum.Processing), "ms"},
		"engine.partial_groups":      {perQuery(sum.PartialGroups), "count/query"},
		"expr.vec_rows":              {perQuery(sum.VecRows), "count/query"},
		"watch.refresh_ms":           {quantile(refresh, 0.5), "ms"},
		"runtime.alloc_mb_per_query": {float64(e.memAfter.TotalAlloc-e.memBefore.TotalAlloc) / mib / float64(max(n, 1)), "MiB"},
		"runtime.gc_per_query":       {float64(gcs) / float64(max(n, 1)), "count/query"},
		"host.probe_ms":              {ms(probe), "ms"},
		"trace.overhead_frac":        {overhead, "ratio"},
	}
}
