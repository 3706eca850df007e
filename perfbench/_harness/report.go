package main

import (
	"fmt"
	"math"
	"path/filepath"

	"gosensei/internal/machine"
	"gosensei/internal/perfmodel"
)

// measured is everything a workload run hands to assemble.
type measured struct {
	host   hostInfo
	setups []float64      // seconds, one per repeated set-up
	timed  []*phaseResult // the timed phases, in plan order
	rss    float64        // VmHWM at the end of the measured session
	// ok and attempted count timed steps whose output matched the
	// reference; controlHits and controlSteps the negative control.
	ok, attempted, controlHits, controlSteps int
	// stepLog is the traced log of the rank the user waits on; logs are
	// all traced logs, grouped by pid under groups' names.
	stepLog *spanLog
	logs    []*spanLog
	groups  map[int]string
	// model pairs traced per-layer medians with their perfmodel terms.
	model []modelRow
}

// modelRow is one layer's measured time beside the perfmodel term that
// claims to predict it.
type modelRow struct {
	layer      string
	term       string
	measuredMs float64
	modelS     float64
}

// localModel is the model the residual column compares with: this host's
// machine description and the uncalibrated default kernel costs, so the
// column is a property of the model, not of the run.
func localModel() *perfmodel.Model {
	return perfmodel.New(machine.Local(), perfmodel.DefaultCalibration())
}

func printModel(rows []modelRow) {
	fmt.Println("perfmodel residuals (machine.Local, DefaultCalibration; reported, never gated):")
	fmt.Printf("  %-24s %-48s %11s %11s %9s\n", "layer", "model term", "measured ms", "model ms", "residual")
	for _, r := range rows {
		model := r.modelS * 1e3
		res := math.Abs(model-r.measuredMs) / r.measuredMs
		fmt.Printf("  %-24s %-48s %11.3f %11.3f %9.2f\n", r.layer, r.term, r.measuredMs, model, res)
	}
}

// assemble turns a workload's measurements into the metrics main prints:
// the end-to-end metrics, or in the traced mode the per-layer metrics, and
// whether the self-time table adds up.
func assemble(o *options, m *measured) ([]metric, bool, error) {
	if !o.trace {
		return e2eMetrics(m.setups, m.timed[0], m.rss, m.ok, m.attempted), true, nil
	}
	traced := m.timed[tracedPhase-1]
	goLayerMetrics(traced)
	var steps int
	var wall float64
	for _, p := range m.timed {
		if !p.traced {
			steps += len(p.steps)
			wall += (p.last - p.begin).Seconds()
		}
	}
	plain := float64(steps) / wall
	l := traced.layers
	l["trace.steps_per_s"] = traced.stepsPerSecond()
	l["trace.untraced_steps_per_s"] = plain
	l["trace.overhead_pct"] = 100 * (plain - traced.stepsPerSecond()) / plain
	l["trace.step_p50_ms"] = median(traced.stepMs)
	errPct, ok := printSelfTable(fmt.Sprintf("%s rank %d", o.workload, m.stepLog.tid), m.stepLog)
	l["trace.selftime_sum_err_pct"] = math.Abs(errPct)
	fmt.Printf("tracing overhead: %.2f%% (%.3f steps/s untraced, %.3f traced)\n",
		l["trace.overhead_pct"], plain, traced.stepsPerSecond())
	printModel(m.model)
	path := filepath.Join(o.outDir, "trace.json")
	if err := writeChromeTrace(path, m.host, m.groups, m.logs...); err != nil {
		return nil, false, fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("trace: %s\n", path)
	var out []metric
	for _, lm := range layerMetrics {
		out = append(out, metric{lm.name, l[lm.name], lm.unit})
	}
	return out, ok, nil
}
