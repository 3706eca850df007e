// Command perfbench is the repository benchmark. It runs one of three
// closed-loop workloads for a fixed wall time, checks every timed step's
// output against a reference computed outside the timed phase, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics of a
// traced run) as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads: insitu-slice (2 goroutine ranks, oscillator + Catalyst slice),
// intransit-tcp (1 writer -> 1 endpoint over a TCP staging fabric,
// histogram at the endpoint) and composite-tcp (binary-swap compositing
// over a 2-rank TCP world). ../README.md explains the choices.
//
// The benchmark only calls the program's public functions: every layer is
// timed from outside, around those calls, and from the metrics.Registry
// timers the adaptors already keep.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// options is the parsed command line.
type options struct {
	workload string
	seed     uint64
	refSeed  uint64
	seconds  float64
	trace    bool
	outDir   string
	rev      string
}

type metric struct {
	name  string
	value float64
	unit  string
}

func main() {
	os.Exit(run())
}

func run() int {
	var o options
	var trace int
	var refSeed int64
	flag.StringVar(&o.workload, "workload", "", "insitu-slice | intransit-tcp | composite-tcp")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: generates the oscillator deck and the compositing inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "wall time of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced mode and reports per-layer metrics")
	flag.Int64Var(&refSeed, "reference-seed", -1, "seed the output references are generated from (default: -seed); "+
		"any other seed is the negative control and must drive ok_step_ratio to 0")
	flag.StringVar(&o.outDir, "out", ".bench_build/out", "scratch directory for PNGs and the Chrome trace")
	flag.StringVar(&o.rev, "rev", "unknown", "source revision recorded in the host block")
	flag.Parse()
	o.trace = trace == 1
	o.refSeed = o.seed
	if refSeed >= 0 {
		o.refSeed = uint64(refSeed)
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		return 2
	}
	runners := map[string]func(*options) (*measured, error){
		"insitu-slice":  runInsitu,
		"intransit-tcp": runIntransit,
		"composite-tcp": runComposite,
	}
	fn, ok := runners[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, trace)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	o.outDir = dir
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	m, err := fn(&o)
	if err == nil {
		var ms []metric
		var selfTimeOK bool
		if ms, selfTimeOK, err = assemble(&o, m); err == nil {
			printResult(&o, m, ms, selfTimeOK)
			return 0
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
	return 1
}

// printResult prints the host block, a readable metric table and, last,
// the one-line JSON result. selfTimeOK is false when the traced run's
// self-time table does not add up to the traced step p50.
func printResult(o *options, res *measured, metrics []metric, selfTimeOK bool) {
	hb, _ := json.Marshal(res.host)
	fmt.Printf("host: %s\n", hb)
	fmt.Printf("check: %d/%d timed steps match the reference (reference seed %d)\n", res.ok, res.attempted, o.refSeed)
	fmt.Printf("control: %d/%d steps match a reference from another seed (must be 0)\n", res.controlHits, res.controlSteps)
	for _, m := range metrics {
		fmt.Printf("  %-34s %14.6g %s\n", m.name, m.value, m.unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(metrics))
	for _, m := range metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	correct := res.attempted > 0 && res.ok == res.attempted && res.controlHits == 0 && res.controlSteps > 0
	if o.trace && !selfTimeOK {
		correct = false
	}
	out, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, res.attempted, res.attempted - res.ok, ms})
	fmt.Println(string(out))
}

// hostInfo is the host block every result carries.
type hostInfo struct {
	Workload     string  `json:"workload"`
	Seed         uint64  `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        bool    `json:"trace"`
	CPUModel     string  `json:"cpu_model"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	ThreadBudget string  `json:"thread_budget"`
	GoVersion    string  `json:"go_version"`
	Revision     string  `json:"revision"`
}

func newHost(o *options, budget string) hostInfo {
	return hostInfo{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		CPUModel: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		ThreadBudget: budget, GoVersion: runtime.Version(), Revision: o.rev,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMiB reads the process high-water mark (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	return s[lo]*(1-f) + s[lo+1]*f
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
