// Command perfbench is the repository's end-to-end benchmark. Each run
// drives one workload with closed-loop callers against the public API
// of ser, internal/serd and internal/router, checks every answer, and
// prints its metrics, the last line as one JSON object. With --trace 1
// it reports per-layer self times and program counters instead of the
// end-to-end figures. Run it from the repository root:
//
//	bash perfbench/run.sh --workload analyze-cold --seed 1 --seconds 22 --trace 0
//
// --workload all runs every workload in turn.
//
// The workloads, their reasons and their metrics are listed in
// BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro"
)

// processStart stands in for the process start: package variables are
// initialized before main runs, a few milliseconds after exec.
var processStart = time.Now()

// defaultSeed is the seed the pinned answer digests are recorded for.
const defaultSeed = 1

// setupReps is how many times a run builds and characterizes a fresh
// system; setup_s counts the median build, which is the noisiest part
// of set-up.
const setupReps = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", defaultSeed, "workload seed; the generated inputs depend on it alone")
	seconds := fs.Float64("seconds", 22, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *name == "all" && fs.NArg() == 0 {
		return runAll(fs, stdout, stderr)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || fs.NArg() > 0 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	res, err := measure(context.Background(), w, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runAll runs every workload, each in a process of its own so that its
// set-up time and peak memory are its own, with the other flags as
// given.
func runAll(fs *flag.FlagSet, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, w := range workloads {
		args := []string{"--workload", w.name}
		for _, f := range []string{"seed", "seconds", "trace"} {
			args = append(args, "--"+f, fs.Lookup(f).Value.String())
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
	}
	return 0
}

func workloadNames() string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return strings.Join(append(n, "all"), ", ")
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs one workload: set-up, warm-up, the timed phase, and the
// report.
func measure(ctx context.Context, w *workload, seed uint64, budget time.Duration, traced bool, out, log io.Writer) (*result, error) {
	var sys *ser.System
	var reps []float64
	var repSum time.Duration
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if sys, err = characterize(ctx, w.circuits); err != nil {
			return nil, fmt.Errorf("characterize: %w", err)
		}
		d := time.Since(t0)
		repSum += d
		reps = append(reps, d.Seconds())
	}
	sess, err := w.start(ctx, sys, seed, traced)
	if err != nil {
		return nil, err
	}
	defer sess.close()
	warmFailed := 0
	for _, pass := range sess.warmup {
		for _, o := range runLoop(ctx, w.conns, 0, func(int) []op { return pass }, false, log) {
			if o.failed {
				warmFailed++
			}
		}
	}
	before, err := sess.counters()
	if err != nil {
		return nil, fmt.Errorf("read counters: %w", err)
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	setup := time.Since(processStart) - repSum + time.Duration(median(reps)*float64(time.Second))

	steal0, cpu0 := hostCPU()
	hist0 := histSums()
	t0 := time.Now()
	outs := runLoop(ctx, w.conns, budget, sess.round, traced, log)
	elapsed := time.Since(t0)
	hist1 := histSums()
	steal1, cpu1 := hostCPU()

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	after, err := sess.counters()
	if err != nil {
		return nil, fmt.Errorf("read counters: %w", err)
	}
	delta := after.sub(before)

	res := &result{Attempted: len(outs), Metrics: make(map[string]metric)}
	var lat []float64
	refused := 0
	for _, o := range outs {
		switch {
		case o.failed:
			res.Failed++
			if o.refused {
				refused++
			}
		default:
			lat = append(lat, ms(o.latency))
		}
	}
	digest := digestOf(outs)
	pinnedOK := seed != defaultSeed || digest == w.pinned
	res.Correct = res.Failed == 0 && warmFailed == 0 && pinnedOK && len(lat) > 0

	fmt.Fprintf(out, "perfbench %s: seed %d, %s, %s\n", w.name, seed, w.loop, map[bool]string{false: "untraced", true: "traced rounds alternate with untraced"}[traced])
	fmt.Fprintf(out, "  ops: attempted %d, failed %d (refused %d), warm-up failed %d, rounds %d\n",
		res.Attempted, res.Failed, refused, warmFailed, lastRound(outs)+1)
	fmt.Fprintf(out, "  answer digest (first round) %s", digest)
	switch {
	case seed != defaultSeed:
		fmt.Fprintf(out, " (pinned only for seed %d)\n", defaultSeed)
	case pinnedOK:
		fmt.Fprintf(out, " matches the pinned digest\n")
	default:
		fmt.Fprintf(out, " DIFFERS from the pinned %s\n", w.pinned)
		fmt.Fprintf(log, "perfbench: %s: answer digest %s differs from the pinned %s\n", w.name, digest, w.pinned)
	}
	if cpu1 > cpu0 {
		fmt.Fprintf(out, "  host: %.1f%% of CPU time went to other tenants (steal) during the timed phase; every figure slows with it\n",
			100*float64(steal1-steal0)/float64(cpu1-cpu0))
	}
	if delta.evictions != 0 || delta.characterizations != 0 {
		fmt.Fprintf(out, "  FLAG: the timed phase saw %d compiled-cache evictions and %d characterizations; the working set is no longer warm\n",
			delta.evictions, delta.characterizations)
	}

	rss := peakRSSMB(&ms1)
	if !traced {
		n := len(lat)
		p50 := percentile(lat, 50)
		tail := percentile(lat, w.tail)
		ops := float64(n) / elapsed.Seconds()
		put(res, out, "ops_per_s", ops, "1/s", fmt.Sprintf("%d ops in %.2f s", n, elapsed.Seconds()))
		put(res, out, "p50_ms", p50, "ms", fmt.Sprintf("n=%d", n))
		note := fmt.Sprintf("reported as tail_ms; n=%d, %d beyond", n, beyond(n, w.tail))
		if tp := tailPercentile(n); tp < w.tail {
			note += fmt.Sprintf("; WARNING: fewer than %d beyond, too few ops for this percentile", minBeyond)
		}
		fmt.Fprintf(out, "  %-28s %12.4f %-6s (%s)\n", fmt.Sprintf("p%g_ms", w.tail), tail, "ms", note)
		res.Metrics["tail_ms"] = metric{tail, "ms"}
		put(res, out, "setup_s", setup.Seconds(), "s", fmt.Sprintf("characterization median of %d: %.3f s", setupReps, median(reps)))
		put(res, out, "peak_rss_mb", rss, "MB", "VmHWM")
		return res, nil
	}
	reportLayers(res, out, w, outs, delta, optimizerShares(hist0, hist1), &ms0, &ms1)
	if err := writeTrace(w.name, seed, outs); err != nil {
		fmt.Fprintf(log, "perfbench: write trace: %v\n", err)
	}
	return res, nil
}

func put(res *result, out io.Writer, name string, v float64, unit, note string) {
	res.Metrics[name] = metric{v, unit}
	if note != "" {
		note = "(" + note + ")"
	}
	fmt.Fprintf(out, "  %-28s %12.4f %-6s %s\n", name, v, unit, note)
}

func lastRound(outs []outcome) int {
	if len(outs) == 0 {
		return -1
	}
	return outs[len(outs)-1].round
}

// peakRSSMB reads the process's peak resident set (VmHWM), falling back
// to the runtime's own view of obtained memory where /proc is missing.
func peakRSSMB(ms *runtime.MemStats) float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return float64(ms.Sys) / (1 << 20)
}

// hostCPU reads the host's cumulative steal time and total CPU time,
// over all CPUs, from /proc/stat; both are 0 where it is unavailable.
func hostCPU() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// msLayers are the layers per-op self time is reported for, in report
// order; span names outside this list count as other.
var msLayers = []string{
	"bench.parse", "engine.compile", "charlib.precharacterize", "sertopt.sizing",
	"logicsim.sensitization", "strike.sources", "strike.electrical", "strike.reduce", "strike.rank",
	"seq.frame", "strike.logical", "strike.reduce_seq", "sertopt.optimize",
	"serd.job", "serd.overhead", "router.hop",
}

// reportLayers adds the traced run's per-layer metrics: mean self time
// per traced op for every layer, the counts, the program counters over
// the timed phase, and the tracing overhead of traced against untraced
// rounds.
func reportLayers(res *result, out io.Writer, w *workload, outs []outcome, delta progCounters, optShares map[string]float64, ms0, ms1 *runtime.MemStats) {
	sum := make(map[string]float64)
	counts := make(map[string]float64)
	var n int
	var wall, worst float64
	var plain, traced []float64
	for _, o := range outs {
		if o.failed {
			continue
		}
		if !o.traced {
			plain = append(plain, ms(o.latency))
			continue
		}
		traced = append(traced, ms(o.latency))
		if o.layers == nil {
			continue
		}
		n++
		opWall := ms(o.latency)
		wall += opWall
		var total float64
		for name, v := range o.layers {
			total += v
			if !known(name) {
				name = "other"
			}
			sum[name] += v
		}
		worst = max(worst, math.Abs(total-opWall))
		for name, v := range o.counts {
			counts[name] += v
		}
	}
	evalUS := 0.0
	if counts["sertopt.evaluations"] > 0 {
		evalUS = sum["sertopt.optimize"] * 1000 / counts["sertopt.evaluations"]
	}
	nest(sum, "sertopt.optimize", optShares)
	per := func(v float64) float64 {
		if n == 0 {
			return 0
		}
		return v / float64(n)
	}
	fmt.Fprintf(out, "  per-layer self time per traced op (%d ops, mean wall %.3f ms; layers plus other reconcile to wall within %.3g ms)\n",
		n, per(wall), worst)
	for _, l := range msLayers {
		put(res, out, l+"_ms", per(sum[l]), "ms", "")
	}
	put(res, out, "other_ms", per(sum["other"]), "ms", "")
	share := 0.0
	if wall > 0 {
		share = sum["other"] / wall
	}
	put(res, out, "other_share", share, "ratio", "other_ms over op wall time")

	put(res, out, "sertopt.evaluations", per(counts["sertopt.evaluations"]), "count", "cost evaluations per op")
	put(res, out, "sertopt.eval_us", evalUS, "us", "optimizer time, stages inside it included, per evaluation")
	put(res, out, "serd.resp_kb", per(counts["serd.resp_kb"]), "KB", "response body per op")

	ratio := func(hit, miss int64) float64 {
		if hit+miss == 0 {
			return 0
		}
		return float64(hit) / float64(hit+miss)
	}
	put(res, out, "engine.cache_hit_ratio", ratio(delta.cacheHits, delta.cacheMisses), "ratio",
		fmt.Sprintf("serd compiled cache, timed phase: %d hits, %d misses", delta.cacheHits, delta.cacheMisses))
	put(res, out, "engine.cache_evictions", float64(delta.evictions), "count", "serd compiled cache, timed phase")
	put(res, out, "engine.memo_hit_ratio", ratio(delta.memoHits, delta.memoMisses), "ratio",
		fmt.Sprintf("timed phase: %d hits, %d misses", delta.memoHits, delta.memoMisses))
	put(res, out, "charlib.characterizations", float64(delta.characterizations), "count", "timed phase")

	ops := float64(len(plain) + len(traced))
	if ops == 0 {
		ops = 1
	}
	put(res, out, "runtime.alloc_mb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20)/ops, "MB", "timed phase")
	put(res, out, "runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6/ops, "ms", "per op, timed phase")

	// Tracing overhead: what traced rounds cost against untraced ones,
	// as a share of untraced; positive is slower. Throughput is callers
	// over mean latency.
	cost := func(worse, base float64) float64 {
		if base == 0 {
			return 0
		}
		return 100 * (worse - base) / base
	}
	thr := func(l []float64) float64 {
		var s float64
		for _, v := range l {
			s += v
		}
		if s == 0 {
			return 0
		}
		return float64(w.conns) * float64(len(l)) / (s / 1000)
	}
	put(res, out, "tracing.ops_per_s_pct", -cost(thr(traced), thr(plain)), "%",
		fmt.Sprintf("%d traced vs %d untraced ops", len(traced), len(plain)))
	put(res, out, "tracing.p50_ms_pct", cost(percentile(traced, 50), percentile(plain, 50)), "%", "")
	put(res, out, "tracing.tail_ms_pct", cost(percentile(traced, w.tail), percentile(plain, w.tail)), "%", fmt.Sprintf("p%g", w.tail))
}

func known(layer string) bool {
	for _, l := range msLayers {
		if l == layer {
			return true
		}
	}
	return false
}

// writeTrace writes every traced op's spans, relative to the op's
// start, and its layer split, one JSON object per line, under
// .bench_build/trace in the working directory.
func writeTrace(name string, seed uint64, outs []outcome) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)))
	if err != nil {
		return err
	}
	type spanRec struct {
		Name    string  `json:"name"`
		StartMS float64 `json:"start_ms"`
		EndMS   float64 `json:"end_ms"`
	}
	enc := json.NewEncoder(f)
	for _, o := range outs {
		if o.layers == nil {
			continue
		}
		var spans []spanRec
		for _, s := range o.spans {
			spans = append(spans, spanRec{s.name, ms(s.start.Sub(o.start)), ms(s.end.Sub(o.start))})
		}
		if err := enc.Encode(struct {
			Op     int                `json:"op"`
			Input  string             `json:"input"`
			WallMS float64            `json:"wall_ms"`
			Layers map[string]float64 `json:"layers_ms"`
			Counts map[string]float64 `json:"counts,omitempty"`
			Spans  []spanRec          `json:"spans,omitempty"`
		}{o.index, o.input, ms(o.latency), o.layers, o.counts, spans}); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
