package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gosensei/internal/adios"
	"gosensei/internal/analysis"
	"gosensei/internal/core"
	"gosensei/internal/fabric"
	"gosensei/internal/grid"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
	"gosensei/internal/oscillator"
	"gosensei/internal/parallel"
)

// The intransit-tcp workload: 1 writer rank stages raw BP containers of a
// 64^3-cell oscillator over a real TCP socket (adios.ListenFabric +
// adios.DialWire, queue depth 1 as cmd/endpoint defaults to) to 1 endpoint
// rank that runs a 10-bin histogram.
const (
	stagingDepth = 1
	histBins     = 10
	// deliveryTimeout bounds the wait for the endpoint between phases.
	deliveryTimeout = 30 * time.Second
)

// endpointRec is one step as the endpoint saw it.
type endpointRec struct {
	step                   int
	decodeStart, decodeEnd time.Duration
	histStart, histEnd     time.Duration
	digest                 uint64
}

// endpointSide collects the endpoint rank's records. The writer swaps the
// span log only while the endpoint is idle, between phases; mu orders the
// swap with the endpoint's reads.
type endpointSide struct {
	mu        sync.Mutex
	recs      map[int]*endpointRec
	log       *spanLog
	delivered atomic.Int64 // last step whose result exists
}

func (ep *endpointSide) rec(step int) *endpointRec {
	r := ep.recs[step]
	if r == nil {
		r = &endpointRec{step: step}
		ep.recs[step] = r
	}
	return r
}

func (ep *endpointSide) setLog(l *spanLog) {
	ep.mu.Lock()
	ep.log = l
	ep.mu.Unlock()
}

// waitDelivered blocks until the endpoint executed step.
func (ep *endpointSide) waitDelivered(step int) error {
	deadline := time.Now().Add(deliveryTimeout)
	for ep.delivered.Load() < int64(step) {
		if time.Now().After(deadline) {
			return fmt.Errorf("endpoint did not deliver step %d within %v", step, deliveryTimeout)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// configure builds the endpoint bridge: the histogram, wrapped so its
// result is timed and fingerprinted, and a registry hook that times
// endpoint::decode.
func (ep *endpointSide) configure(ready chan<- struct{}) func(b *core.Bridge) error {
	return func(b *core.Bridge) error {
		h := analysis.NewHistogram(b.Comm, "data", grid.CellData, histBins)
		wrap := &timedAdaptor{name: "analysis.histogram", inner: h}
		// The registry hook and the wrapper both run on the endpoint rank's
		// goroutine; only the log pointer is shared with the writer.
		b.Registry.SetEventHook(func(e metrics.Event) {
			if e.Name != "endpoint::decode" {
				return
			}
			end := since()
			start := end - time.Duration(e.Seconds*float64(time.Second))
			ep.mu.Lock()
			r := ep.rec(e.Step)
			r.decodeStart, r.decodeEnd = start, end
			ep.log.closed(e.Name, e.Step, start, end)
			wrap.log = ep.log
			ep.mu.Unlock()
		})
		wrap.after = func(d core.DataAdaptor) {
			ep.mu.Lock()
			r := ep.rec(d.TimeStep())
			r.histStart, r.histEnd = wrap.start, wrap.end
			r.digest = histDigest(h.Last)
			ep.mu.Unlock()
			ep.delivered.Store(int64(d.TimeStep()))
		}
		b.AddAnalysis("histogram", wrap)
		close(ready)
		return nil
	}
}

// histDigest fingerprints a histogram result: step, range and counts.
func histDigest(r *analysis.HistogramResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(r.Step))
	put(math.Float64bits(r.Min))
	put(math.Float64bits(r.Max))
	for _, c := range r.Counts {
		put(uint64(c))
	}
	return h.Sum64()
}

// intransitRun is what the writer measured, per phase.
type intransitRun struct {
	recs    [][]stepRec
	logs    []*spanLog // writer
	epLogs  []*spanLog // endpoint
	wire    []wireDelta
	ep      *endpointSide
	stats   *fabric.Stats
	results []*phaseResult
}

// wireDelta is the writer's data traffic over one phase.
type wireDelta struct{ wire, logical, frames int64 }

// snapshot copies the counters of a fabric.Stats.
func snapshot(s *fabric.Stats) (wire, logical, frames, retrans, reconn int64) {
	return s.DataBytesWire.Value(), s.DataBytesLogical.Value(), s.FramesOut.Value(),
		s.Retransmits.Value(), s.Reconnects.Value()
}

// intransitSession listens, dials, sets both sides up and runs plan; a nil
// plan only sets up and tears down. The set-up time runs from before the
// listen until the writer's handshake completed and the endpoint is
// configured.
func intransitSession(deck []oscillator.Oscillator, plan []phase) (time.Duration, *intransitRun, error) {
	t0 := since()
	f, err := adios.ListenFabric("tcp", "127.0.0.1:0", 1, 1, stagingDepth)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	wt, err := adios.DialWire(adios.WireOptions{Network: "tcp", Addr: f.Addr(), Writers: 1, Readers: 1, Depth: stagingDepth})
	if err != nil {
		return 0, nil, err
	}
	run := &intransitRun{ep: &endpointSide{recs: map[int]*endpointRec{}}, stats: wt.Stats()}
	for _, ph := range plan {
		run.results = append(run.results, &phaseResult{phase: ph, layers: map[string]float64{}})
	}
	epReady := make(chan struct{})
	epDone := make(chan error, 1)
	go func() {
		_, err := adios.RunEndpoint(f, run.ep.configure(epReady))
		epDone <- err
	}()
	var ready time.Duration
	err = mpi.Run(1, func(c *mpi.Comm) error {
		sim, err := oscillator.NewSim(c, simConfig(deck), nil)
		if err != nil {
			return err
		}
		d := oscillator.NewDataAdaptor(sim)
		reg := metrics.NewRegistry(0)
		b := core.NewBridge(c, reg, nil)
		w := adios.NewWriter(c, wt)
		w.Registry = reg
		wrap := &timedAdaptor{name: "adios.writer", inner: w}
		b.AddAnalysis("adios", wrap)
		if _, err := wt.Negotiated(0); err != nil {
			return err
		}
		select {
		case <-epReady:
		case err := <-epDone:
			return fmt.Errorf("endpoint: %w", err)
		}
		ready = since()
		last := 0
		for pi, ph := range plan {
			p := run.results[pi]
			if err := run.ep.waitDelivered(last); err != nil {
				return err
			}
			log := newSpanLog(ph.traced, 1, 0)
			epLog := newSpanLog(ph.traced, 2, 0)
			run.ep.setLog(epLog)
			wrap.log = log
			hookRegistry(reg, log, "adios::advance", "adios::analysis")
			quiesce(&p.mem0)
			w0, l0, f0, _, _ := snapshot(run.stats)
			p.begin = since()
			deadline := p.begin + time.Duration(ph.seconds*float64(time.Second))
			var recs []stepRec
			for {
				r, err := simStep(sim, d, b, log)
				if err != nil {
					return err
				}
				recs = append(recs, r)
				if r.end >= deadline {
					break
				}
			}
			last = recs[len(recs)-1].step
			if err := run.ep.waitDelivered(last); err != nil {
				return err
			}
			runtime.ReadMemStats(&p.mem1)
			w1, l1, f1, _, _ := snapshot(run.stats)
			run.wire = append(run.wire, wireDelta{w1 - w0, l1 - l0, f1 - f0})
			run.recs = append(run.recs, recs)
			run.logs = append(run.logs, log)
			run.epLogs = append(run.epLogs, epLog)
		}
		hookRegistry(reg, nil)
		return b.Finalize()
	})
	if err != nil {
		return 0, nil, err
	}
	if err := <-epDone; err != nil {
		return 0, nil, fmt.Errorf("endpoint: %w", err)
	}
	for pi, p := range run.results {
		for _, rec := range run.recs[pi] {
			er := run.ep.recs[rec.step]
			if er == nil || er.histEnd == 0 {
				return 0, nil, fmt.Errorf("step %d never reached the endpoint", rec.step)
			}
			p.steps = append(p.steps, rec.step)
			p.stepMs = append(p.stepMs, ms(rec.end-rec.start))
			p.latMs = append(p.latMs, ms(er.histEnd-rec.ready))
			p.last = er.histEnd
		}
		p.moved = run.wire[pi].wire
	}
	return ready - t0, run, nil
}

// intransitReference runs analysis.Histogram at P=1 on the field of every
// wanted step and returns each result's fingerprint.
func intransitReference(deck []oscillator.Oscillator, steps []int) (map[int]uint64, error) {
	want := map[int]bool{}
	last := 0
	for _, s := range steps {
		want[s] = true
		last = max(last, s)
	}
	out := map[int]uint64{}
	err := mpi.Run(1, func(c *mpi.Comm) error {
		sim, err := oscillator.NewSim(c, simConfig(deck), nil)
		if err != nil {
			return err
		}
		d := oscillator.NewDataAdaptor(sim)
		h := analysis.NewHistogram(c, "data", grid.CellData, histBins)
		b := core.NewBridge(c, nil, nil)
		b.AddAnalysis("histogram", h)
		for sim.StepIndex() < last {
			if err := sim.Step(); err != nil {
				return err
			}
			if !want[sim.StepIndex()] {
				continue
			}
			d.Update()
			if _, err := b.Execute(d); err != nil {
				return err
			}
			out[sim.StepIndex()] = histDigest(h.Last)
		}
		return b.Finalize()
	})
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return out, nil
}

func runIntransit(o *options) (*measured, error) {
	parallel.SetThreads(1) // the writer's simulation gets one worker
	host := newHost(o, "1 writer rank x 1 worker + 1 endpoint rank (parallel.SetThreads(1))")
	deck := genDeck(o.seed, simCells)

	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		s, _, err := intransitSession(deck, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.Seconds())
	}
	runtime.GC()
	s, run, err := intransitSession(deck, phasesFor(o))
	if err != nil {
		return nil, err
	}
	setups = append(setups, s.Seconds())
	m := &measured{host: host, setups: setups, timed: run.results[1:], rss: peakRSSMiB(),
		groups: map[int]string{1: "writer rank", 2: "endpoint rank"}}

	parallel.SetThreads(runtime.NumCPU()) // references are outside the timed phase
	var timedSteps []int
	for _, p := range m.timed {
		timedSteps = append(timedSteps, p.steps...)
	}
	ref, err := intransitReference(genDeck(o.refSeed, simCells), timedSteps)
	if err != nil {
		return nil, err
	}
	ctrlSteps := timedSteps[:min(4, len(timedSteps))]
	ctrl, err := intransitReference(genDeck(controlSeed(o.refSeed), simCells), ctrlSteps)
	if err != nil {
		return nil, err
	}
	for _, st := range timedSteps {
		m.attempted++
		if run.ep.recs[st].digest == ref[st] {
			m.ok++
		}
	}
	for _, st := range ctrlSteps {
		m.controlSteps++
		if run.ep.recs[st].digest == ctrl[st] {
			m.controlHits++
		}
	}

	if o.trace {
		traced := m.timed[tracedPhase-1]
		wlog, elog := run.logs[tracedPhase], run.epLogs[tracedPhase]
		m.stepLog, m.logs = wlog, []*spanLog{wlog, elog}
		l, n := traced.layers, float64(len(traced.steps))
		l["oscillator.step_ms_p50"] = wlog.p50("oscillator.step")
		l["core.update_ms_p50"] = wlog.p50("core.update")
		l["core.self_ms_p50"] = selfP50(wlog, "core.execute")
		l["adios.advance_ms"] = wlog.p50("adios::advance")
		l["adios.write_ms"] = wlog.p50("adios::analysis")
		l["adios.decode_ms"] = elog.p50("endpoint::decode")
		l["analysis.histogram_ms_p50"] = elog.p50("analysis.histogram")
		writes := wlog.durations("adios::analysis")
		var idle, transit []float64
		for j, st := range traced.steps {
			er := run.ep.recs[st]
			transit = append(transit, traced.latMs[j]-writes[st]-ms(er.decodeEnd-er.decodeStart)-ms(er.histEnd-er.histStart))
			if prev := run.ep.recs[st-1]; j > 0 && prev != nil {
				idle = append(idle, ms(er.decodeStart-prev.histEnd))
			}
		}
		l["fabric.transit_ms_p50"] = median(transit)
		l["adios.endpoint_idle_ms_p50"] = median(idle)
		ws := run.wire[tracedPhase]
		l["fabric.wire_bytes_per_step"] = float64(ws.wire) / n
		l["fabric.logical_bytes_per_step"] = float64(ws.logical) / n
		l["fabric.frames_per_step"] = float64(ws.frames) / n
		_, _, _, retrans, reconn := snapshot(run.stats)
		l["fabric.retransmits"] = float64(retrans)
		l["fabric.reconnects"] = float64(reconn)
		md := localModel()
		bytesPerStep := int64(l["fabric.wire_bytes_per_step"])
		m.model = []modelRow{
			{"oscillator.step", "OscillatorStepTime(64^3 cells, 3)", l["oscillator.step_ms_p50"],
				md.OscillatorStepTime(simCells*simCells*simCells, len(deck))},
			{"adios::advance", "ADIOSAdvanceTime(1)", l["adios.advance_ms"], md.ADIOSAdvanceTime(1)},
			{"adios::analysis", "ADIOSTransferTime(bytes/step)", l["adios.write_ms"], md.ADIOSTransferTime(bytesPerStep)},
			{"analysis.histogram", "HistogramStepTime(1, 64^3, 10)", l["analysis.histogram_ms_p50"],
				md.HistogramStepTime(1, simCells*simCells*simCells, histBins)},
		}
	}
	return m, nil
}
