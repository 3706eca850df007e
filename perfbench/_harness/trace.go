package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"gosensei/internal/core"
	"gosensei/internal/metrics"
)

// selfTimeTolerance is how far the self-time table's rows may sum away
// from the traced step p50, as a share of it (see printSelfTable).
const selfTimeTolerance = 0.05

// layerMetrics lists every per-layer metric, in output order, with its
// unit. A workload that does not exercise a layer reports 0 for it.
var layerMetrics = []struct{ name, unit string }{
	{"oscillator.step_ms_p50", "ms"},
	{"core.update_ms_p50", "ms"},
	{"core.self_ms_p50", "ms"},
	{"catalyst.execute_ms_p50", "ms"},
	{"catalyst.render_ms", "ms"},
	{"catalyst.composite_ms", "ms"},
	{"catalyst.png_ms", "ms"},
	{"mpi.sent_bytes_per_step", "B"},
	{"mpi.sent_msgs_per_step", "count"},
	{"mpi.skew_ms_p50", "ms"},
	{"adios.advance_ms", "ms"},
	{"adios.write_ms", "ms"},
	{"adios.decode_ms", "ms"},
	{"analysis.histogram_ms_p50", "ms"},
	{"adios.endpoint_idle_ms_p50", "ms"},
	{"fabric.transit_ms_p50", "ms"},
	{"fabric.wire_bytes_per_step", "B"},
	{"fabric.logical_bytes_per_step", "B"},
	{"fabric.frames_per_step", "count"},
	{"fabric.retransmits", "count"},
	{"fabric.reconnects", "count"},
	{"compositing.composite_ms_p50", "ms"},
	{"world.join_ms", "ms"},
	{"go.alloc_bytes_per_step", "B"},
	{"go.gc_cycles_per_step", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.steps_per_s", "1/s"},
	{"trace.untraced_steps_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
	{"trace.step_p50_ms", "ms"},
	{"trace.selftime_sum_err_pct", "%"},
}

// span is one traced call: a layer's public function timed from outside,
// or a registry timer stage reported through the registry's event hook.
type span struct {
	name       string
	pid, tid   int // process group (1: ranks the user waits on, 2: endpoint) and rank
	step       int
	start, end time.Duration
	parent     int // index into the same log; -1 for a root
}

// spanLog records one rank's spans in memory. A nil *spanLog records
// nothing: that is the untraced mode.
type spanLog struct {
	pid, tid int
	spans    []span
	open     []int
}

func newSpanLog(traced bool, pid, tid int) *spanLog {
	if !traced {
		return nil
	}
	return &spanLog{pid: pid, tid: tid, spans: make([]span, 0, 4096)}
}

func (l *spanLog) begin(name string, step int, at time.Duration) int {
	if l == nil {
		return -1
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{name: name, pid: l.pid, tid: l.tid, step: step, start: at, parent: parent})
	i := len(l.spans) - 1
	l.open = append(l.open, i)
	return i
}

func (l *spanLog) end(i int, at time.Duration) {
	if l == nil {
		return
	}
	l.spans[i].end = at
	l.open = l.open[:len(l.open)-1]
}

// closed records a finished child of the innermost open span.
func (l *spanLog) closed(name string, step int, start, end time.Duration) {
	i := l.begin(name, step, start)
	l.end(i, end)
}

// hookRegistry turns the named registry timers into child spans: the hook
// fires as the timer stops, so the span ends now and began its duration ago.
func hookRegistry(reg *metrics.Registry, l *spanLog, names ...string) {
	if l == nil {
		reg.SetEventHook(nil)
		return
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	reg.SetEventHook(func(e metrics.Event) {
		if !want[e.Name] {
			return
		}
		end := since()
		l.closed(e.Name, e.Step, end-time.Duration(e.Seconds*float64(time.Second)), end)
	})
}

// timedAdaptor wraps an analysis adaptor: it keeps the start and end of the
// last Execute and, when traced, records it as a span.
type timedAdaptor struct {
	name       string
	inner      core.AnalysisAdaptor
	log        *spanLog
	start, end time.Duration
	// after, when set, runs once Execute returned, outside the span.
	after func(d core.DataAdaptor)
}

func (a *timedAdaptor) Execute(d core.DataAdaptor) (bool, error) {
	a.start = since()
	i := a.log.begin(a.name, d.TimeStep(), a.start)
	ok, err := a.inner.Execute(d)
	a.end = since()
	a.log.end(i, a.end)
	if a.after != nil && err == nil {
		a.after(d)
	}
	return ok, err
}

func (a *timedAdaptor) Finalize() error { return a.inner.Finalize() }

// durations returns the durations (ms) of the spans named name, by step.
func (l *spanLog) durations(name string) map[int]float64 {
	out := map[int]float64{}
	if l == nil {
		return out
	}
	for _, s := range l.spans {
		if s.name == name {
			out[s.step] = ms(s.end - s.start)
		}
	}
	return out
}

// p50 is the median of the named span's durations in ms.
func (l *spanLog) p50(name string) float64 {
	var xs []float64
	for _, v := range l.durations(name) {
		xs = append(xs, v)
	}
	return median(xs)
}

// stepSelf is one traced step of the rank the user waits on: its duration
// and the self time of each span in it, in ms. A span's self time is its
// duration minus the part its direct children cover, so the self times of
// one step partition the step exactly; the root's own remainder is the
// harness row.
type stepSelf struct {
	dur  float64
	self map[string]float64
}

// stepSelves splits one log into its step trees (roots named "step").
func stepSelves(l *spanLog) []stepSelf {
	self := make([]time.Duration, len(l.spans))
	for i, s := range l.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	byRoot := map[int]int{} // root span index -> index into out
	var out []stepSelf
	for i, s := range l.spans {
		r := i
		for l.spans[r].parent >= 0 {
			r = l.spans[r].parent
		}
		if l.spans[r].name != "step" {
			continue
		}
		k, ok := byRoot[r]
		if !ok {
			k = len(out)
			byRoot[r] = k
			out = append(out, stepSelf{dur: ms(l.spans[r].end - l.spans[r].start), self: map[string]float64{}})
		}
		name := s.name
		if i == r {
			name = "harness (loop, stop check)"
		}
		out[k].self[name] += ms(self[i])
	}
	return out
}

// selfP50 is the median over steps of the named span's self time.
func selfP50(l *spanLog, name string) float64 {
	var xs []float64
	for _, st := range stepSelves(l) {
		xs = append(xs, st.self[name])
	}
	return median(xs)
}

// printSelfTable prints the self-time table of the rank the user waits
// on. Each row gives a span's median self time over all steps and its mean
// over the steps whose duration lies between the 40th and 60th percentile.
// Those band means sum to the band's mean step time, which lies within the
// band around the step p50; the check is that sum against the p50, within
// selfTimeTolerance. It returns the signed miss in percent.
func printSelfTable(title string, l *spanLog) (errPct float64, ok bool) {
	steps := stepSelves(l)
	durs := make([]float64, len(steps))
	for i, st := range steps {
		durs[i] = st.dur
	}
	stepP50, lo, hi := median(durs), percentile(durs, 0.4), percentile(durs, 0.6)
	all := map[string][]float64{}
	band := map[string]float64{}
	inBand := 0
	for _, st := range steps {
		if st.dur >= lo && st.dur <= hi {
			inBand++
		}
	}
	for _, st := range steps {
		for name, v := range st.self {
			all[name] = append(all[name], v)
			if st.dur >= lo && st.dur <= hi {
				band[name] += v / float64(inBand)
			}
		}
	}
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("self time per step, %s (%d steps, %d in the p40-p60 band):\n", title, len(steps), inBand)
	fmt.Printf("  %-30s %10s %12s\n", "span", "p50 ms", "band mean ms")
	sum := 0.0
	for _, n := range names {
		sum += band[n]
		fmt.Printf("  %-30s %10.3f %12.3f\n", n, median(all[n]), band[n])
	}
	errPct = 100 * (sum - stepP50) / stepP50
	ok = math.Abs(errPct) <= 100*selfTimeTolerance
	fmt.Printf("  %-30s %10s %12.3f   step p50 %.3f ms, off by %+.2f%% (tolerance %.0f%%)\n",
		"sum", "", sum, stepP50, errPct, 100*selfTimeTolerance)
	return errPct, ok
}

// writeChromeTrace writes every log as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open.
func writeChromeTrace(path string, host hostInfo, groups map[int]string, logs ...*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var events []event
	for pid, name := range groups {
		events = append(events, event{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": name}})
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, l := range logs {
		if l == nil {
			continue
		}
		events = append(events, event{Name: "thread_name", Ph: "M", Pid: l.pid, Tid: l.tid,
			Args: map[string]any{"name": fmt.Sprintf("rank %d", l.tid)}})
		for _, s := range l.spans {
			args := map[string]any{"step": s.step}
			if s.parent >= 0 {
				args["parent"] = l.spans[s.parent].name
			}
			events = append(events, event{Name: s.name, Cat: layerOf(s.name), Ph: "X",
				Ts: us(s.start), Dur: us(s.end - s.start), Pid: s.pid, Tid: s.tid, Args: args})
		}
	}
	enc := json.NewEncoder(w)
	err = enc.Encode(struct {
		TraceEvents     []event  `json:"traceEvents"`
		DisplayTimeUnit string   `json:"displayTimeUnit"`
		OtherData       hostInfo `json:"otherData"`
	}{events, "ms", host})
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// layerOf names the module a span belongs to: the text before the first
// '.' or ':'.
func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' || name[i] == ':' {
			return name[:i]
		}
	}
	return name
}
