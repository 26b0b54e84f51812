// Command perfbench is the repository benchmark: four simulator workloads,
// each run in fresh processes, reporting host and modeled end-to-end metrics
// (untraced runs) or a per-layer table (one traced run plus untraced
// baselines). See README.md for the workloads and the metric definitions.
//
//	perfbench --workload serve-2048 --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// golden.json records the default seed, the held-out seed and the behaviour
// fingerprint of every process seed that a run at either of them uses.
//
//go:embed golden.json
var goldenJSON []byte

type golden struct {
	DefaultSeed  int64                        `json:"default_seed"`
	HeldOutSeed  int64                        `json:"held_out_seed"`
	Fingerprints map[string]map[string]string `json:"fingerprints"`
}

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func main() {
	g, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	var (
		childMode = flag.Bool("child", false, "run one workload in this process and print its raw result (used by the parent)")
		name      = flag.String("workload", "", "workload name: "+workloadNames())
		seed      = flag.Int64("seed", g.DefaultSeed, "workload seed")
		seconds   = flag.Float64("seconds", 25, "measurement budget in wall-clock seconds")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics; 0 = end-to-end metrics")
		outDir    = flag.String("out", filepath.Join(".bench_build", "perfbench", "out"), "directory for manifests, spans, profiles and counter dumps")
	)
	flag.Parse()
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *childMode {
		if err := runChild(*name, *seed, *trace == 1, *outDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	res, err := orchestrate(g, *name, *seed, *seconds, *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// childResult is what one workload process reports to the parent.
type childResult struct {
	WindowStartUnixNS int64              `json:"window_start_unix_ns"`
	RunS              float64            `json:"run_s"`
	CPUS              float64            `json:"cpu_s"`
	Phases            map[string]float64 `json:"phases"`
	Runtime           map[string]float64 `json:"runtime"`
	Modeled           []namedValue       `json:"modeled"`
	Counters          map[string]int64   `json:"counters,omitempty"`
	Ops               int                `json:"ops"`
	Failed            int                `json:"failed"`
	Checks            []string           `json:"checks,omitempty"`
	Fingerprint       string             `json:"fingerprint"`
}

func artifact(outDir, name string, seed int64, suffix string) string {
	return filepath.Join(outDir, fmt.Sprintf("%s-seed%d.%s", name, seed, suffix))
}

// runChild executes one workload in this process. The traced run also
// records a CPU profile, the metrics-only registry, the auditor and the
// span file.
func runChild(name string, seed int64, traced bool, outDir string) error {
	c := newChild(seed, traced)
	var prof *os.File
	if traced {
		var err error
		if prof, err = os.Create(artifact(outDir, name, seed, "cpu.pprof")); err != nil {
			return err
		}
		defer prof.Close()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return err
		}
	}
	root := c.log.begin(name)
	err := workloads[name](c)
	c.log.end(root)
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return err
	}
	res := childResult{
		WindowStartUnixNS: c.windowStart.UnixNano(),
		RunS:              c.windowEnd.Sub(c.windowStart).Seconds(),
		CPUS:              c.cpuAtEnd,
		Runtime:           c.runtimeAtEnd,
		Phases:            make(map[string]float64),
		Modeled:           c.modeled,
		Ops:               c.ops,
		Failed:            c.failed,
		Checks:            c.checks,
		Fingerprint:       c.fingerprint(),
	}
	res.Runtime["heap_live_mb"] = c.heapAfterSetup
	for _, h := range hostLayer {
		res.Phases[h.name] = c.log.seconds(strings.TrimSuffix(h.name, "_s"))
	}
	if traced {
		if err := prof.Close(); err != nil {
			return err
		}
		if err := c.log.write(artifact(outDir, name, seed, "spans.json")); err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := c.tr.Registry().WriteJSON(&buf); err != nil {
			return err
		}
		if err := os.WriteFile(artifact(outDir, name, seed, "counters.json"), buf.Bytes(), 0o644); err != nil {
			return err
		}
		if err := json.Unmarshal(buf.Bytes(), &res.Counters); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// readRuntime samples the Go runtime's own accounting.
func readRuntime() map[string]float64 {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return 0
	}
	out := map[string]float64{
		"alloc_mb":     val(0) / (1 << 20),
		"allocs":       val(1),
		"gc_cycles":    val(2),
		"heap_live_mb": val(5) / (1 << 20),
	}
	if total := val(4); total > 0 {
		out["gc_cpu_frac"] = val(3) / total
	}
	return out
}

// cpuSeconds is this process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// rep is one child process as the parent saw it.
type rep struct {
	childResult
	Seed     int64   `json:"seed"`
	SetupS   float64 `json:"setup_s"`
	MaxRSSMB float64 `json:"max_rss_mb"`
	Traced   bool    `json:"traced"`
}

// seedsPerRun is how many process seeds one run of a workload covers (1
// where not listed). serve-2048's work depends on its seed — which customers'
// populations grow decides how long the spill walk gets — so one run covers
// several independent streams and reports their mean.
var seedsPerRun = map[string]int{"serve-2048": 10}

// processSeed is the seed of the j-th stream of a run at seed n. Runs at
// different seeds use disjoint process seeds; a one-stream run uses n itself.
func processSeed(name string, n int64, j int) int64 {
	k := int64(max(seedsPerRun[name], 1))
	return n*k + int64(j)
}

// spawn runs one workload in a fresh process and waits for it to exit.
// setup_s runs from just before the process is started to the start of its
// measured window.
func spawn(name string, seed int64, traced bool, outDir string) (rep, error) {
	exe, err := os.Executable()
	if err != nil {
		return rep{}, err
	}
	traceFlag := "0"
	if traced {
		traceFlag = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-trace", traceFlag, "-out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return rep{}, fmt.Errorf("%s seed %d (traced=%v): %w", name, seed, traced, err)
	}
	r := rep{Seed: seed, Traced: traced}
	if err := json.Unmarshal(stdout.Bytes(), &r.childResult); err != nil {
		return rep{}, fmt.Errorf("%s: child result: %w", name, err)
	}
	r.SetupS = float64(r.WindowStartUnixNS-start.UnixNano()) / 1e9
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.MaxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return r, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Minimum untraced processes per run; more run while the budget lasts.
const (
	minUntracedE2E    = 3
	minUntracedTraced = 2
	maxProcesses      = 60
)

// orchestrate runs the workload in fresh processes, one at a time, until the
// budget is spent, checks their outputs and reduces them to the result. An
// untraced run cycles through its process seeds and covers each at least
// once; a traced run uses the first process seed only.
func orchestrate(g golden, name string, seed int64, seconds float64, traced bool, outDir string) (result, error) {
	env := runEnv()
	fmt.Printf("perfbench env: workload=%s seed=%d trace=%v go=%s gomaxprocs=%d numcpu=%d revision=%s\n",
		name, seed, traced, env["go"], runtime.GOMAXPROCS(0), runtime.NumCPU(), env["vcs.revision"])
	budget := time.Duration(seconds * float64(time.Second))
	begin := time.Now()
	var reps []rep
	streams := max(seedsPerRun[name], 1)
	minUntraced := max(minUntracedE2E, streams)
	if traced {
		r, err := spawn(name, processSeed(name, seed, 0), true, outDir)
		if err != nil {
			return result{}, err
		}
		reps = append(reps, r)
		streams, minUntraced = 1, minUntracedTraced
	}
	// Start another process while it is expected to finish by the end of
	// the budget (within half a process), so a run overruns it little.
	var spent time.Duration
	for n := 0; len(reps) < maxProcesses; n++ {
		if n >= minUntraced && time.Since(begin)+spent/time.Duration(2*n) >= budget {
			break
		}
		t0 := time.Now()
		r, err := spawn(name, processSeed(name, seed, n%streams), false, outDir)
		if err != nil {
			return result{}, err
		}
		spent += time.Since(t0)
		reps = append(reps, r)
	}

	res := result{Correct: true, Metrics: make(map[string]metric)}
	var problems []string
	first := make(map[int64]int) // process seed -> index of its first process
	for i, r := range reps {
		res.Attempted += r.Ops
		bad := len(r.Checks) > 0
		for _, c := range r.Checks {
			problems = append(problems, fmt.Sprintf("process %d: %s", i, c))
		}
		f, seen := first[r.Seed]
		if !seen {
			first[r.Seed] = i
		} else if r.Fingerprint != reps[f].Fingerprint {
			bad = true
			problems = append(problems, fmt.Sprintf("process %d (seed %d, traced=%v): fingerprint %s differs from process %d's %s", i, r.Seed, r.Traced, r.Fingerprint, f, reps[f].Fingerprint))
		}
		if want := g.Fingerprints[name][strconv.FormatInt(r.Seed, 10)]; want != "" && r.Fingerprint != want {
			bad = true
			problems = append(problems, fmt.Sprintf("process %d (seed %d): fingerprint %s differs from golden.json's %s", i, r.Seed, r.Fingerprint, want))
		}
		if bad {
			res.Failed += r.Ops
		} else {
			res.Failed += r.Failed
		}
	}
	if len(problems) > 0 {
		res.Correct = false
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "perfbench check failed:", p)
		}
	}

	var untraced []rep
	var tracedRep *rep
	for i := range reps {
		if reps[i].Traced {
			tracedRep = &reps[i]
		} else {
			untraced = append(untraced, reps[i])
		}
	}
	if traced {
		shares, err := foldProfile(artifact(outDir, name, tracedRep.Seed, "cpu.pprof"))
		if err != nil {
			return result{}, err
		}
		layerMetrics(res.Metrics, *tracedRep, untraced, shares, res)
		if err := writeJSON(artifact(outDir, name, seed, "layers.json"), res.Metrics); err != nil {
			return result{}, err
		}
	} else {
		endToEndMetrics(res.Metrics, untraced)
	}
	manifest := map[string]any{
		"workload": name, "seed": seed, "trace": traced, "seconds": seconds,
		"env": env, "processes": reps, "result": res, "problems": problems,
	}
	suffix := "e2e.json"
	if traced {
		suffix = "traced.json"
	}
	if err := writeJSON(artifact(outDir, name, seed, suffix), manifest); err != nil {
		return result{}, err
	}
	return res, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runEnv records what makes runs comparable: toolchain, CPUs and revision.
func runEnv() map[string]string {
	env := map[string]string{
		"go":           runtime.Version(),
		"gomaxprocs":   strconv.Itoa(runtime.GOMAXPROCS(0)),
		"numcpu":       strconv.Itoa(runtime.NumCPU()),
		"goos_goarch":  runtime.GOOS + "/" + runtime.GOARCH,
		"vcs.revision": "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision", "vcs.modified", "vcs.time":
				env[s.Key] = s.Value
			}
		}
	}
	if host, err := os.Hostname(); err == nil {
		env["hostname"] = host
	}
	return env
}

// modeledValue returns a deterministic output by name (0 when the workload
// does not produce it).
func modeledValue(r rep, name string) float64 {
	for _, nv := range r.Modeled {
		if nv.Name == name {
			return nv.Value
		}
	}
	return 0
}

func median(reps []rep, f func(rep) float64) float64 {
	if len(reps) == 0 {
		return 0
	}
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	sort.Float64s(v)
	if n := len(v); n%2 == 1 {
		return v[n/2]
	} else {
		return (v[n/2-1] + v[n/2]) / 2
	}
}

// seedMean is the mean over the run's process seeds of the median over each
// seed's processes; with one process seed it is the median.
func seedMean(reps []rep, f func(rep) float64) float64 {
	bySeed := make(map[int64][]rep)
	for _, r := range reps {
		bySeed[r.Seed] = append(bySeed[r.Seed], r)
	}
	seeds := make([]int64, 0, len(bySeed))
	for s := range bySeed {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	sum := 0.0
	for _, s := range seeds {
		sum += median(bySeed[s], f)
	}
	return sum / float64(max(len(seeds), 1))
}

// endToEndMetrics are the untraced metrics: set-up time as the median over
// the processes, run and CPU time and the modeled outputs (identical in
// every process of a seed) as means over process seeds (seedMean), peak RSS
// as the maximum.
func endToEndMetrics(m map[string]metric, untraced []rep) {
	m["setup_s"] = metric{median(untraced, func(r rep) float64 { return r.SetupS }), "s"}
	m["run_s"] = metric{seedMean(untraced, func(r rep) float64 { return r.RunS }), "s"}
	m["cpu_s"] = metric{seedMean(untraced, func(r rep) float64 { return r.CPUS }), "s"}
	// Peak RSS is bimodal from process to process (it depends on where GC
	// cycles fall), so the run reports the peak over its processes.
	peak := 0.0
	for _, r := range untraced {
		peak = max(peak, r.MaxRSSMB)
	}
	m["max_rss_mb"] = metric{peak, "MB"}
	for _, e := range modeledEndToEnd {
		m[e.name] = metric{seedMean(untraced, func(r rep) float64 { return modeledValue(r, e.name) }), e.unit}
	}
}

type nameUnit struct{ name, unit string }

// modeledEndToEnd are the deterministic end-to-end metrics.
var modeledEndToEnd = []nameUnit{
	{"host_msgs_p90", "msgs"},
	{"msgs_per_op", "msgs/op"},
	{"success_frac", "frac"},
}

// modeledLayer are per-layer rows read from the workload's deterministic
// outputs (0 where the workload has no such output).
var modeledLayer = []nameUnit{
	{"simnet.msgs", "msgs"},
	{"simnet.kb", "KB"},
	{"aggregation.tree_height", "levels"},
	{"aggregation.agg_latency_ms", "virt_ms"},
	{"rebalance.queries", "count"},
	{"rebalance.migrations", "count"},
	{"rebalance.useful_frac", "frac"},
	{"migration.completed", "count"},
	{"cluster.sd_after", "util"},
	{"tcshape.bw_satisfaction", "frac"},
	{"placement.hops_mean", "hops"},
	{"placement.hops_p99", "hops"},
	{"placement.hops_max", "hops"},
	{"serve.placements", "count"},
	{"serve.virt_p50_ms", "virt_ms"},
	{"serve.virt_p99_ms", "virt_ms"},
	{"serve.virt_p999_ms", "virt_ms"},
	{"serve.msgs_per_placement", "msgs"},
	{"serve.cache_hit_frac", "frac"},
	{"serve.vms_per_batch", "VMs"},
}

// counterLayer are per-layer rows read from the traced run's registry; scale
// converts the registry's integer units.
var counterLayer = []struct {
	name, unit, key string
	scale           float64
}{
	{"sim.events", "count", "sim/queue_depth/count", 1},
	{"sim.queue_depth_p99", "events", "sim/queue_depth/p99", 1},
	{"pastry.route_hops", "count", "pastry/route_hops", 1},
	{"pastry.deliveries", "count", "pastry/deliveries", 1},
	{"pastry.hops_p99", "hops", "pastry/hops/p99", 1},
	{"scribe.anycasts", "count", "scribe/anycasts_seen", 1},
	{"scribe.anycast_retries", "count", "scribe/anycasts_retried", 1},
	{"scribe.multicasts_relayed", "count", "scribe/multicasts_relayed", 1},
	{"scribe.anycast_p99_ms", "virt_ms", "scribe/anycast_ns/p99", 1e-6},
	{"migration.duration_p99_s", "virt_s", "migration/duration_ns/p99", 1e-9},
	{"obs.audit_sweeps", "count", "audit/sweeps", 1},
}

// hostLayer are per-layer host-time rows: medians over the untraced
// processes.
var hostLayer = []nameUnit{
	{"setup.core_new_s", "s"},
	{"setup.load_s", "s"},
	{"setup.ring_build_s", "s"},
	{"setup.overlay_apps_s", "s"},
	{"sample.calls_s", "s"},
}

var runtimeLayer = []nameUnit{
	{"runtime.alloc_mb", "MB"},
	{"runtime.allocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.heap_live_mb", "MB"},
}

// layerMetrics builds the per-layer table of a traced run.
func layerMetrics(m map[string]metric, tr rep, untraced []rep, shares map[string]float64, res result) {
	runS := median(untraced, func(r rep) float64 { return r.RunS })
	for _, h := range hostLayer {
		m[h.name] = metric{median(untraced, func(r rep) float64 { return r.Phases[h.name] }), h.unit}
	}
	for _, l := range runtimeLayer {
		key := l.name[len("runtime."):]
		m[l.name] = metric{median(untraced, func(r rep) float64 { return r.Runtime[key] }), l.unit}
	}
	for _, l := range modeledLayer {
		m[l.name] = metric{modeledValue(tr, l.name), l.unit}
	}
	for _, l := range counterLayer {
		m[l.name] = metric{float64(tr.Counters[l.key]) * l.scale, l.unit}
	}
	if ev := m["sim.events"].Value; ev > 0 {
		m["sim.ns_per_event"] = metric{runS * 1e9 / ev, "ns"}
	} else {
		m["sim.ns_per_event"] = metric{0, "ns"}
	}
	if p := m["serve.placements"].Value; p > 0 {
		m["serve.ns_per_placement"] = metric{runS * 1e9 / p, "ns"}
	} else {
		m["serve.ns_per_placement"] = metric{0, "ns"}
	}
	for _, row := range cpuRows {
		m["cpu."+row] = metric{shares[row], "frac"}
	}
	overhead := 0.0
	if runS > 0 {
		overhead = tr.RunS/runS - 1
	}
	m["obs.trace_overhead_frac"] = metric{overhead, "frac"}
	failedFrac := 0.0
	if res.Attempted > 0 {
		failedFrac = float64(res.Failed) / float64(res.Attempted)
	}
	m["failed_frac"] = metric{failedFrac, "frac"}
}
