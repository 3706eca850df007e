package main

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"gosensei/internal/compositing"
	"gosensei/internal/mpi"
	"gosensei/internal/parallel"
	"gosensei/internal/render"
	"gosensei/internal/world"
)

// The composite-tcp workload: 2 ranks meshed over TCP by world.Launch in
// one process; each step loads a pre-generated 960x540 colour+depth
// framebuffer per rank and composites them with binary swap onto rank 0.
const (
	compRanks      = 2
	frameW, frameH = 960, 540
	// frameSets is how many distinct input sets the seed generates; step s
	// composites set s % frameSets.
	frameSets = 4
)

// worldSeq keeps world identities distinct across the launches of a run.
var worldSeq atomic.Uint64

// compositeSession launches the world, allocates each rank's working
// framebuffer and runs plan; a nil plan only sets up and tears down. It
// returns the set-up time (until every rank is ready) and the join time
// (until the first rank entered its function), both from the Launch call,
// and the root's output fingerprint for every step.
func compositeSession(inputs [][]*render.Framebuffer, plan []phase) (setup, join time.Duration, ranks []*rankRun, digests map[int]uint32, res []*phaseResult, err error) {
	ranks = make([]*rankRun, compRanks)
	digests = map[int]uint32{}
	stops := make([]stopper, len(plan))
	for _, ph := range plan {
		res = append(res, &phaseResult{phase: ph, layers: map[string]float64{}})
	}
	cfg := world.Config{Network: "tcp", ID: uint64(os.Getpid())<<20 | worldSeq.Add(1), Epoch: 1}
	t0 := since()
	errs := world.Launch(compRanks, cfg, func(c *mpi.Comm) error {
		me := &rankRun{entry: since()}
		ranks[c.Rank()] = me
		fb := render.NewFramebuffer(frameW, frameH)
		if err := c.Barrier(); err != nil {
			return err
		}
		me.ready = since()
		step := 0
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
			tr0 := c.TrafficStats()
			var recs []stepRec
			for i := 0; !stops[pi].stopped(i); i++ {
				r := stepRec{step: step, start: since()}
				root := log.begin("step", step, r.start)
				ld := log.begin("inputs.load", step, r.start)
				loadFrame(fb, inputs[c.Rank()][step%frameSets])
				r.ready = since()
				log.end(ld, r.ready)
				cs := log.begin("compositing.composite", step, r.ready)
				final, err := compositing.Composite(c, fb, 0, compositing.BinarySwap)
				r.end = since()
				log.end(cs, r.end)
				log.end(root, r.end)
				if err != nil {
					return err
				}
				if final != nil {
					digests[step] = frameDigest(final)
					final.Release()
				}
				recs = append(recs, r)
				step++
				if c.Rank() == 0 {
					stops[pi].decide(i)
				}
			}
			if c.Rank() == 0 {
				runtime.ReadMemStats(&res[pi].mem1)
			}
			me.endPhase(recs, log, tr0, c.TrafficStats())
		}
		return nil
	})
	for _, e := range errs {
		if e != nil {
			return 0, 0, nil, nil, nil, e
		}
	}
	join = time.Duration(1<<63 - 1)
	for _, r := range ranks {
		setup = max(setup, r.ready-t0)
		join = min(join, r.entry-t0)
	}
	if err := collate(res, ranks); err != nil {
		return 0, 0, nil, nil, nil, err
	}
	return setup, join, ranks, digests, res, nil
}

// compositeReference composites every input set on the in-process mpi.Run
// transport and returns the root's fingerprint per set.
func compositeReference(inputs [][]*render.Framebuffer) ([]uint32, error) {
	out := make([]uint32, frameSets)
	err := mpi.Run(compRanks, func(c *mpi.Comm) error {
		fb := render.NewFramebuffer(frameW, frameH)
		for k := 0; k < frameSets; k++ {
			loadFrame(fb, inputs[c.Rank()][k])
			final, err := compositing.Composite(c, fb, 0, compositing.BinarySwap)
			if err != nil {
				return err
			}
			if final != nil {
				out[k] = frameDigest(final)
				final.Release()
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return out, nil
}

func runComposite(o *options) (*measured, error) {
	parallel.SetThreads(compRanks)
	host := newHost(o, fmt.Sprintf("%d world ranks x %d worker (parallel.SetThreads(%d))",
		compRanks, parallel.Budget(compRanks), compRanks))
	inputs := genFrames(o.seed, compRanks, frameSets, frameW, frameH)

	var setups, joins []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		s, j, _, _, _, err := compositeSession(inputs, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.Seconds())
		joins = append(joins, ms(j))
	}
	runtime.GC()
	s, j, ranks, digests, res, err := compositeSession(inputs, phasesFor(o))
	if err != nil {
		return nil, err
	}
	setups = append(setups, s.Seconds())
	joins = append(joins, ms(j))
	m := &measured{host: host, setups: setups, timed: res[1:], rss: peakRSSMiB(), groups: map[int]string{1: "world ranks"}}

	ref, err := compositeReference(genFrames(o.refSeed, compRanks, frameSets, frameW, frameH))
	if err != nil {
		return nil, err
	}
	ctrl, err := compositeReference(genFrames(controlSeed(o.refSeed), compRanks, frameSets, frameW, frameH))
	if err != nil {
		return nil, err
	}
	for _, p := range m.timed {
		for _, st := range p.steps {
			m.attempted++
			if digests[st] == ref[st%frameSets] {
				m.ok++
			}
			if m.controlSteps < 4 {
				m.controlSteps++
				if digests[st] == ctrl[st%frameSets] {
					m.controlHits++
				}
			}
		}
	}

	if o.trace {
		traced := m.timed[tracedPhase-1]
		logs := mpiLayers(traced, ranks, "compositing.composite")
		m.stepLog, m.logs = logs[0], logs
		l := traced.layers
		l["compositing.composite_ms_p50"] = logs[0].p50("compositing.composite")
		l["world.join_ms"] = median(joins)
		m.model = []modelRow{
			{"compositing.composite", "CompositeTime(BinarySwap, 2, 960x540)", l["compositing.composite_ms_p50"],
				localModel().CompositeTime(compositing.BinarySwap, compRanks, frameW*frameH)},
		}
	}
	return m, nil
}
