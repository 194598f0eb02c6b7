// Command diversify regenerates the paper-reproduction experiment suite
// E1–E13 (package internal/experiments; internal/README.md maps the
// packages behind it).
//
// Usage:
//
//	diversify -experiment all            # run everything
//	diversify -experiment E7 -reps 200   # one experiment, more replications
//	diversify -list                      # list experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"diversify/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "diversify:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("diversify", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all", "experiment ID (E1..E13) or \"all\"")
		reps       = fs.Int("reps", 0, "replications per cell (0 = experiment default)")
		seed       = fs.Uint64("seed", 1, "root RNG seed")
		workers    = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		list       = fs.Bool("list", false, "list experiment IDs and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintln(out, e.ID)
		}
		return nil
	}
	opts := experiments.Opts{Reps: *reps, Seed: *seed, Workers: *workers}
	var runners []struct {
		ID  string
		Run experiments.Runner
	}
	if strings.EqualFold(*experiment, "all") {
		runners = experiments.All()
	} else {
		r, err := experiments.ByID(*experiment)
		if err != nil {
			return err
		}
		runners = append(runners, struct {
			ID  string
			Run experiments.Runner
		}{ID: strings.ToUpper(*experiment), Run: r})
	}
	for _, e := range runners {
		start := time.Now()
		res, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprint(out, res.String())
		fmt.Fprintf(out, "(%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
