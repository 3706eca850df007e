package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"gosensei/internal/core"
	"gosensei/internal/mpi"
	"gosensei/internal/oscillator"
)

const (
	// warmupSeconds runs untimed steps first: buffer pools fill, the wire
	// codec is negotiated and the TCP window grows before any step counts.
	warmupSeconds = 1.5
	// setupRepeats is how many complete set-ups (and teardowns) a run
	// times before the measured session; setup_s is their median, because
	// a single sub-millisecond set-up does not repeat.
	setupRepeats = 101
	// stopMargin is how many steps past the deciding step every rank still
	// runs. Ranks are coupled by a collective every step, so no rank is
	// more than one step ahead of the decider, and all stop after the same
	// step.
	stopMargin = 3
)

var epoch = time.Now()

// since is the harness clock: monotonic time since process start, shared
// by every goroutine rank of the process.
func since() time.Duration { return time.Since(epoch) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// phase is one stretch of a measured session. The first phase of every
// session is the untimed warm-up; the others are timed.
type phase struct {
	traced  bool
	seconds float64
}

// tracedPhase is the plan index of the traced mode's traced phase.
const tracedPhase = 2

// phasesFor returns the session plan: warm-up, then one untraced timed
// phase, or, in the traced mode, an untraced quarter, the traced half and
// another untraced quarter. The tracing overhead is measured in one
// process, and the untraced quarters straddle the traced half so a steady
// drift of host speed cancels out of it.
func phasesFor(o *options) []phase {
	ps := []phase{{seconds: warmupSeconds}}
	if !o.trace {
		return append(ps, phase{seconds: o.seconds})
	}
	return append(ps,
		phase{seconds: o.seconds / 4},
		phase{traced: true, seconds: o.seconds / 2},
		phase{seconds: o.seconds / 4})
}

// stopper lets one deciding rank end a phase after its deadline while every
// rank runs the same steps.
type stopper struct {
	deadline time.Duration
	at       atomic.Int64 // first loop index that does not run; 0 = undecided
}

func (s *stopper) decide(i int) {
	if s.at.Load() == 0 && since() >= s.deadline {
		s.at.Store(int64(i + stopMargin))
	}
}

func (s *stopper) stopped(i int) bool {
	a := s.at.Load()
	return a != 0 && int64(i) >= a
}

// stepRec is one step as seen by one rank: loop start, data ready (the
// simulation step returned or the inputs are loaded) and step end.
type stepRec struct {
	step              int
	start, ready, end time.Duration
}

// phaseResult is what a workload measured over one phase.
type phaseResult struct {
	phase
	begin time.Duration // phase start on the deciding rank
	last  time.Duration // arrival of the last step's result
	steps []int         // program step indices, in order
	// stepMs is the per-step time on the rank the user waits on; latMs is
	// data ready to result on the result rank.
	stepMs, latMs []float64
	moved         int64 // bytes that left a rank during the phase
	mem0, mem1    runtime.MemStats
	// layers holds the traced phase's per-layer metrics.
	layers map[string]float64
}

func (p *phaseResult) stepsPerSecond() float64 {
	return float64(len(p.steps)) / (p.last - p.begin).Seconds()
}

// quiesce brings the heap to a steady state between phases and snapshots
// the runtime counters.
func quiesce(m *runtime.MemStats) {
	runtime.GC()
	runtime.ReadMemStats(m)
}

// e2eMetrics turns the untraced timed phase into the nine end-to-end
// metrics.
func e2eMetrics(setups []float64, p *phaseResult, rss float64, ok, attempted int) []metric {
	n := float64(len(p.steps))
	return []metric{
		{"setup_s", median(setups), "s"},
		{"steps_per_s", p.stepsPerSecond(), "1/s"},
		{"step_p50_ms", percentile(p.stepMs, 0.5), "ms"},
		{"step_p90_ms", percentile(p.stepMs, 0.9), "ms"},
		{"result_latency_p50_ms", percentile(p.latMs, 0.5), "ms"},
		{"result_latency_p90_ms", percentile(p.latMs, 0.9), "ms"},
		{"moved_bytes_per_step", float64(p.moved) / n, "B"},
		{"peak_rss_mib", rss, "MiB"},
		{"ok_step_ratio", float64(ok) / float64(attempted), "ratio"},
	}
}

// goLayerMetrics fills the runtime rows of a traced phase.
func goLayerMetrics(p *phaseResult) {
	n := float64(len(p.steps))
	p.layers["go.alloc_bytes_per_step"] = float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc) / n
	p.layers["go.gc_cycles_per_step"] = float64(p.mem1.NumGC-p.mem0.NumGC) / n
	p.layers["go.gc_pause_ms"] = float64(p.mem1.PauseTotalNs-p.mem0.PauseTotalNs) / 1e6 / n
}

// simStep runs one bridged simulation step, Sim.Step then
// DataAdaptor.Update then Bridge.Execute, each a span under a "step" root.
func simStep(sim *oscillator.Sim, d *oscillator.DataAdaptor, b *core.Bridge, log *spanLog) (stepRec, error) {
	r := stepRec{step: sim.StepIndex() + 1, start: since()}
	root := log.begin("step", r.step, r.start)
	s := log.begin("oscillator.step", r.step, r.start)
	if err := sim.Step(); err != nil {
		return r, err
	}
	r.ready = since()
	log.end(s, r.ready)
	u := log.begin("core.update", r.step, r.ready)
	d.Update()
	t := since()
	log.end(u, t)
	e := log.begin("core.execute", r.step, t)
	_, err := b.Execute(d)
	r.end = since()
	log.end(e, r.end)
	log.end(root, r.end)
	return r, err
}

// rankRun is what one rank of a goroutine-rank session measured, per
// phase of the plan.
type rankRun struct {
	entry, ready time.Duration // entered the rank function; set-up finished
	recs         [][]stepRec
	logs         []*spanLog
	traffic      []mpi.Traffic // sent bytes and messages over the phase
}

func (r *rankRun) endPhase(recs []stepRec, log *spanLog, tr0, tr1 mpi.Traffic) {
	r.recs = append(r.recs, recs)
	r.logs = append(r.logs, log)
	r.traffic = append(r.traffic, mpi.Traffic{SentBytes: tr1.SentBytes - tr0.SentBytes, SentMsgs: tr1.SentMsgs - tr0.SentMsgs})
}

// collate fills each phase's per-step series from every rank's records:
// the step time on rank 0, and the latency from the last rank's data
// being ready to the end of rank 0's step, where the result exists.
func collate(res []*phaseResult, ranks []*rankRun) error {
	for pi, p := range res {
		r0 := ranks[0].recs[pi]
		for _, r := range ranks[1:] {
			if len(r.recs[pi]) != len(r0) {
				return fmt.Errorf("ranks ran %d and %d steps in phase %d", len(r0), len(r.recs[pi]), pi)
			}
		}
		for j, rec := range r0 {
			ready := rec.ready
			for _, r := range ranks[1:] {
				ready = max(ready, r.recs[pi][j].ready)
			}
			p.steps = append(p.steps, rec.step)
			p.stepMs = append(p.stepMs, ms(rec.end-rec.start))
			p.latMs = append(p.latMs, ms(rec.end-ready))
		}
		p.last = r0[len(r0)-1].end
		for _, r := range ranks {
			p.moved += r.traffic[pi].SentBytes
		}
	}
	return nil
}

// mpiLayers fills the traced phase's mpi rows and returns every rank's
// traced log; skewSpan names the span whose spread across ranks is the
// skew.
func mpiLayers(p *phaseResult, ranks []*rankRun, skewSpan string) []*spanLog {
	var logs []*spanLog
	var sent, msgs int64
	for _, r := range ranks {
		logs = append(logs, r.logs[tracedPhase])
		sent += r.traffic[tracedPhase].SentBytes
		msgs += r.traffic[tracedPhase].SentMsgs
	}
	n := float64(len(p.steps))
	p.layers["mpi.sent_bytes_per_step"] = float64(sent) / n
	p.layers["mpi.sent_msgs_per_step"] = float64(msgs) / n
	p.layers["mpi.skew_ms_p50"] = skewP50(logs, skewSpan)
	return logs
}

// skewP50 is the median over steps of the spread (max - min) across ranks
// of the named span's duration.
func skewP50(logs []*spanLog, name string) float64 {
	byRank := make([]map[int]float64, len(logs))
	for i, l := range logs {
		byRank[i] = l.durations(name)
	}
	var skews []float64
	for step, v := range byRank[0] {
		lo, hi := v, v
		for _, m := range byRank[1:] {
			if w, ok := m[step]; ok {
				lo, hi = min(lo, w), max(hi, w)
			}
		}
		skews = append(skews, hi-lo)
	}
	return median(skews)
}
