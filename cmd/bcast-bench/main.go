// Command bcast-bench regenerates the paper's evaluation — Table 1,
// Fig. 14, the Fig. 2 worked example — and the ablation experiments
// catalogued in DESIGN.md (channel sweep, pruning effort, heuristic
// quality, simulator comparison).
//
// Examples:
//
//	bcast-bench -exp table1
//	bcast-bench -exp fig14 -trials 50 -csv
//	bcast-bench -exp all -workers 4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiment"
)

// options carries the command-line configuration into run.
type options struct {
	exp    string
	trials int
	seed   int64
	maxM   int
	csv    bool
	// workers fans trial loops across goroutines (0 = GOMAXPROCS); output
	// is identical for every value.
	workers int
}

func main() {
	var opt options
	flag.StringVar(&opt.exp, "exp", "all", "experiment: "+experimentNames(" | "))
	flag.IntVar(&opt.trials, "trials", 0, "trial count override (0 = experiment default)")
	flag.Int64Var(&opt.seed, "seed", 1, "random seed")
	flag.IntVar(&opt.maxM, "max-m", 5, "largest fanout for table1 (6 takes minutes)")
	flag.BoolVar(&opt.csv, "csv", false, "emit fig14 as CSV instead of a table")
	flag.IntVar(&opt.workers, "workers", 0, "worker goroutines for trial loops (0 = GOMAXPROCS)")
	flag.Parse()
	if err := run(opt, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bcast-bench:", err)
		os.Exit(1)
	}
}

// runners lists the experiments in the order -exp all runs them; the
// -exp help text and the unknown-experiment error are drawn from it too.
var runners = []struct {
	name string
	run  func(opt options, w io.Writer) error
}{
	{"fig2", func(opt options, w io.Writer) error {
		fmt.Fprintln(w, "== Fig. 2: the worked example ==")
		r, err := experiment.Fig2()
		if err != nil {
			return err
		}
		return experiment.RenderFig2(w, r)
	}},
	{"table1", func(opt options, w io.Writer) error {
		ms := []int{}
		for m := 2; m <= opt.maxM; m++ {
			ms = append(ms, m)
		}
		fmt.Fprintln(w, "== Table 1: pruning effects (full m-ary tree, depth 3) ==")
		rows, err := experiment.Table1(experiment.Table1Config{
			Ms: ms, Trials: opt.trials, Seed: opt.seed, Workers: opt.workers,
		})
		if err != nil {
			return err
		}
		return experiment.RenderTable1(w, rows)
	}},
	{"fig14", func(opt options, w io.Writer) error {
		fmt.Fprintln(w, "== Fig. 14: Index Tree Sorting vs Optimal (m=4, µ=100) ==")
		points, err := experiment.Fig14(experiment.Fig14Config{
			Trials: opt.trials, Seed: opt.seed, Workers: opt.workers,
		})
		if err != nil {
			return err
		}
		if opt.csv {
			return experiment.WriteCSVFig14(w, points)
		}
		return experiment.RenderFig14(w, points)
	}},
	{"fig14multi", func(opt options, w io.Writer) error {
		fmt.Fprintln(w, "== E2b: Fig. 14 extended to multiple channels (m=3) ==")
		points, err := experiment.Fig14Multi(experiment.Fig14MultiConfig{
			Trials: opt.trials, Seed: opt.seed, Workers: opt.workers,
		})
		if err != nil {
			return err
		}
		return experiment.RenderFig14Multi(w, points)
	}},
	{"channels", func(opt options, w io.Writer) error {
		fmt.Fprintln(w, "== A1: optimal data wait vs channel count ==")
		points, err := experiment.ChannelSweep(experiment.ChannelSweepConfig{Seed: opt.seed})
		if err != nil {
			return err
		}
		return experiment.RenderChannelSweep(w, points)
	}},
	{"pruning", func(opt options, w io.Writer) error {
		fmt.Fprintln(w, "== A2: search effort with pruning on/off ==")
		points, err := experiment.PruningAblation(experiment.PruningAblationConfig{
			Trials: opt.trials, Seed: opt.seed, Workers: opt.workers,
		})
		if err != nil {
			return err
		}
		return experiment.RenderPruning(w, points)
	}},
	{"heuristics", func(opt options, w io.Writer) error {
		fmt.Fprintln(w, "== A3: heuristic cost / optimal cost ==")
		points, err := experiment.HeuristicQuality(experiment.HeuristicQualityConfig{
			Trials: opt.trials, Seed: opt.seed, Workers: opt.workers,
		})
		if err != nil {
			return err
		}
		return experiment.RenderQuality(w, points)
	}},
	{"sim", func(opt options, w io.Writer) error {
		fmt.Fprintln(w, "== A4: client metrics vs SV96 and flat broadcast ==")
		rows, err := experiment.SimComparison(experiment.SimComparisonConfig{Seed: opt.seed})
		if err != nil {
			return err
		}
		return experiment.RenderSim(w, rows)
	}},
	{"treeshape", func(opt options, w io.Writer) error {
		fmt.Fprintln(w, "== A5: index-tree construction comparison ==")
		rows, err := experiment.TreeShape(experiment.TreeShapeConfig{Seed: opt.seed})
		if err != nil {
			return err
		}
		return experiment.RenderTreeShape(w, rows)
	}},
	{"replication", func(opt options, w io.Writer) error {
		fmt.Fprintln(w, "== A6: root replication sweep ==")
		rows, err := experiment.ReplicationSweep(experiment.ReplicationConfig{Seed: opt.seed})
		if err != nil {
			return err
		}
		return experiment.RenderReplication(w, rows)
	}},
	{"largescale", func(opt options, w io.Writer) error {
		fmt.Fprintln(w, "== A7: heuristics vs lower bound at scale ==")
		rows, err := experiment.LargeScale(experiment.LargeScaleConfig{
			Seed: opt.seed, Workers: opt.workers,
		})
		if err != nil {
			return err
		}
		return experiment.RenderLargeScale(w, rows)
	}},
	{"loss", func(opt options, w io.Writer) error {
		fmt.Fprintln(w, "== A8: client cost under a lossy channel ==")
		rows, err := experiment.LossSweep(experiment.LossConfig{
			Trials: opt.trials, Seed: opt.seed, Workers: opt.workers,
		})
		if err != nil {
			return err
		}
		return experiment.RenderLoss(w, rows)
	}},
	{"adapt", func(opt options, w io.Writer) error {
		fmt.Fprintln(w, "== A9: demand drift vs rebuild cadence (epoch hot swap) ==")
		rows, err := experiment.AdaptSweep(experiment.AdaptConfig{
			Seed: opt.seed, Workers: opt.workers,
		})
		if err != nil {
			return err
		}
		return experiment.RenderAdapt(w, rows)
	}},
	{"outage", func(opt options, w io.Writer) error {
		fmt.Fprintln(w, "== A10: channel outages vs watchdog replanning ==")
		rows, err := experiment.OutageSweep(experiment.OutageSweepConfig{
			Trials: opt.trials, Seed: opt.seed, Workers: opt.workers,
		})
		if err != nil {
			return err
		}
		return experiment.RenderOutage(w, rows)
	}},
	{"batch", func(opt options, w io.Writer) error {
		fmt.Fprintln(w, "== A11: batch retrieval planning vs sequential lookups ==")
		points, err := experiment.BatchSweep(experiment.BatchConfig{
			Trials: opt.trials, Seed: opt.seed, Workers: opt.workers,
		})
		if err != nil {
			return err
		}
		return experiment.RenderBatch(w, points)
	}},
	{"restart", func(opt options, w io.Writer) error {
		fmt.Fprintln(w, "== A12: station crashes vs reconnect backoff and checkpoint cadence ==")
		rows, replay, err := experiment.RestartSweep(experiment.RestartSweepConfig{
			Trials: opt.trials, Seed: opt.seed, Workers: opt.workers,
		})
		if err != nil {
			return err
		}
		return experiment.RenderRestart(w, rows, replay)
	}},
}

// experimentNames joins the runner names and "all" with sep.
func experimentNames(sep string) string {
	names := make([]string, 0, len(runners)+1)
	for _, r := range runners {
		names = append(names, r.name)
	}
	return strings.Join(append(names, "all"), sep)
}

func run(opt options, w io.Writer) error {
	for _, r := range runners {
		if opt.exp == "all" {
			if err := r.run(opt, w); err != nil {
				return fmt.Errorf("%s: %w", r.name, err)
			}
			fmt.Fprintln(w)
		} else if r.name == opt.exp {
			return r.run(opt, w)
		}
	}
	if opt.exp == "all" {
		return nil
	}
	return fmt.Errorf("unknown experiment %q; registered experiments: %s",
		opt.exp, experimentNames(", "))
}
