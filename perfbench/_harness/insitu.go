package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gosensei/internal/catalyst"
	"gosensei/internal/compositing"
	"gosensei/internal/core"
	"gosensei/internal/grid"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
	"gosensei/internal/oscillator"
	"gosensei/internal/parallel"
)

// The insitu-slice workload: 2 goroutine ranks on mpi.Run, a 64^3-cell
// oscillator, and a Catalyst slice at 480x270 (render, binary-swap
// composite, serial PNG on rank 0) every step.
const (
	insituRanks    = 2
	simCells       = 64
	sliceW, sliceH = 480, 270
	simDT          = 0.05
)

func simConfig(deck []oscillator.Oscillator) oscillator.Config {
	return oscillator.Config{
		GlobalCells: [3]int{simCells, simCells, simCells},
		DT:          simDT,
		Steps:       math.MaxInt32,
		Oscillators: deck,
	}
}

func sliceOptions(dir string) catalyst.Options {
	return catalyst.Options{
		ArrayName: "data", Assoc: grid.CellData,
		Width: sliceW, Height: sliceH,
		SliceAxis: 2, SliceCoord: simCells / 2,
		OutputDir: dir,
	}
}

// slicePath is where rank 0 of a slice pipeline writes a step's PNG.
func slicePath(dir string, step int) string {
	return filepath.Join(dir, fmt.Sprintf("slice_%05d.png", step))
}

// insituSession sets the pipeline up on every rank and runs plan; a nil
// plan only sets up and tears down. It returns the set-up time: from the
// call until every rank has its simulation, bridge and adaptor.
func insituSession(deck []oscillator.Oscillator, plan []phase, pngDir string) (time.Duration, []*rankRun, []*phaseResult, error) {
	t0 := since()
	ranks := make([]*rankRun, insituRanks)
	stops := make([]stopper, len(plan))
	res := make([]*phaseResult, len(plan))
	for i := range res {
		res[i] = &phaseResult{phase: plan[i], layers: map[string]float64{}}
	}
	err := mpi.Run(insituRanks, func(c *mpi.Comm) error {
		me := &rankRun{}
		ranks[c.Rank()] = me
		sim, err := oscillator.NewSim(c, simConfig(deck), nil)
		if err != nil {
			return err
		}
		d := oscillator.NewDataAdaptor(sim)
		reg := metrics.NewRegistry(c.Rank())
		b := core.NewBridge(c, reg, nil)
		cat := catalyst.NewSliceAdaptor(c, sliceOptions(pngDir))
		cat.Registry = reg
		if err := cat.Initialize(); err != nil {
			return err
		}
		wrap := &timedAdaptor{name: "catalyst.execute", inner: cat}
		b.AddAnalysis("catalyst", wrap)
		if err := c.Barrier(); err != nil {
			return err
		}
		me.ready = since()
		for pi, ph := range plan {
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				quiesce(&res[pi].mem0)
				res[pi].begin = since()
				stops[pi].deadline = res[pi].begin + time.Duration(ph.seconds*float64(time.Second))
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			log := newSpanLog(ph.traced, 1, c.Rank())
			wrap.log = log
			hookRegistry(reg, log, "catalyst::render", "catalyst::composite", "catalyst::png")
			tr0 := c.TrafficStats()
			var recs []stepRec
			for i := 0; !stops[pi].stopped(i); i++ {
				r, err := simStep(sim, d, b, log)
				if err != nil {
					return err
				}
				recs = append(recs, r)
				if c.Rank() == 0 {
					stops[pi].decide(i)
				}
			}
			if c.Rank() == 0 {
				runtime.ReadMemStats(&res[pi].mem1)
			}
			me.endPhase(recs, log, tr0, c.TrafficStats())
		}
		hookRegistry(reg, nil)
		return b.Finalize()
	})
	if err != nil {
		return 0, nil, nil, err
	}
	setup := time.Duration(0)
	for _, r := range ranks {
		setup = max(setup, r.ready-t0)
	}
	if err := collate(res, ranks); err != nil {
		return 0, nil, nil, err
	}
	return setup, ranks, res, nil
}

// insituReference runs the same pipeline at P=1 in-process and returns the
// SHA-256 of each wanted step's slice PNG. Steps between the wanted ones
// only advance the simulation.
func insituReference(deck []oscillator.Oscillator, steps []int, dir string) (map[int]string, error) {
	want := map[int]bool{}
	last := 0
	for _, s := range steps {
		want[s] = true
		last = max(last, s)
	}
	err := mpi.Run(1, func(c *mpi.Comm) error {
		sim, err := oscillator.NewSim(c, simConfig(deck), nil)
		if err != nil {
			return err
		}
		d := oscillator.NewDataAdaptor(sim)
		b := core.NewBridge(c, nil, nil)
		b.AddAnalysis("catalyst", catalyst.NewSliceAdaptor(c, sliceOptions(dir)))
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
		}
		return b.Finalize()
	})
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	out := map[int]string{}
	for s := range want {
		if out[s], err = fileDigest(slicePath(dir, s)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func runInsitu(o *options) (*measured, error) {
	parallel.SetThreads(insituRanks) // one worker per rank
	host := newHost(o, fmt.Sprintf("%d ranks x %d worker (parallel.SetThreads(%d))",
		insituRanks, parallel.Budget(insituRanks), insituRanks))
	deck := genDeck(o.seed, simCells)
	pngDir := filepath.Join(o.outDir, "png")
	if err := os.RemoveAll(pngDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(pngDir)

	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		s, _, _, err := insituSession(deck, nil, pngDir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.Seconds())
	}
	runtime.GC()
	s, ranks, res, err := insituSession(deck, phasesFor(o), pngDir)
	if err != nil {
		return nil, err
	}
	setups = append(setups, s.Seconds())
	m := &measured{host: host, setups: setups, timed: res[1:], rss: peakRSSMiB(), groups: map[int]string{1: "insitu ranks"}}

	// Output check: every timed step's PNG against the P=1 reference, and
	// the first few against a reference from another seed.
	var timedSteps []int
	for _, p := range m.timed {
		timedSteps = append(timedSteps, p.steps...)
	}
	refDir := filepath.Join(o.outDir, "png-ref")
	defer os.RemoveAll(refDir)
	ref, err := insituReference(genDeck(o.refSeed, simCells), timedSteps, refDir)
	if err != nil {
		return nil, err
	}
	ctrlSteps := timedSteps[:min(4, len(timedSteps))]
	ctrl, err := insituReference(genDeck(controlSeed(o.refSeed), simCells), ctrlSteps, refDir)
	if err != nil {
		return nil, err
	}
	for _, st := range timedSteps {
		got, err := fileDigest(slicePath(pngDir, st))
		if err != nil {
			return nil, err
		}
		m.attempted++
		if got == ref[st] {
			m.ok++
		}
	}
	for _, st := range ctrlSteps {
		got, err := fileDigest(slicePath(pngDir, st))
		if err != nil {
			return nil, err
		}
		m.controlSteps++
		if got == ctrl[st] {
			m.controlHits++
		}
	}

	if o.trace {
		traced := m.timed[tracedPhase-1]
		logs := mpiLayers(traced, ranks, "catalyst.execute")
		m.stepLog, m.logs = logs[0], logs
		l := traced.layers
		l["oscillator.step_ms_p50"] = logs[0].p50("oscillator.step")
		l["core.update_ms_p50"] = logs[0].p50("core.update")
		l["core.self_ms_p50"] = selfP50(logs[0], "core.execute")
		l["catalyst.execute_ms_p50"] = logs[0].p50("catalyst.execute")
		l["catalyst.render_ms"] = logs[0].p50("catalyst::render")
		l["catalyst.composite_ms"] = logs[0].p50("catalyst::composite")
		l["catalyst.png_ms"] = logs[0].p50("catalyst::png")
		md := localModel()
		pixels := sliceW * sliceH
		m.model = []modelRow{
			{"oscillator.step", "OscillatorStepTime(64^3/2 cells, 3)", l["oscillator.step_ms_p50"],
				md.OscillatorStepTime(simCells*simCells*simCells/insituRanks, len(deck))},
			{"catalyst.execute", "SliceRenderStepTime(BinarySwap, 2, 480x270, 1)", l["catalyst.execute_ms_p50"],
				md.SliceRenderStepTime(compositing.BinarySwap, insituRanks, sliceW, sliceH, 1)},
			{"catalyst::composite", "CompositeTime(BinarySwap, 2, 480x270)", l["catalyst.composite_ms"],
				md.CompositeTime(compositing.BinarySwap, insituRanks, pixels)},
			{"catalyst::png", "PNGTime(480x270, compressed)", l["catalyst.png_ms"], md.PNGTime(pixels, false)},
		}
	}
	return m, nil
}
