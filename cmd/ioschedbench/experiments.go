package main

// The experiments subcommand: list the registered experiments — name,
// grid shape, cell-sharing key, CSV output and description — straight
// from the registry, so the listing can never drift from what the binary
// actually runs.

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiment"
	"repro/internal/shard"
	"repro/internal/textplot"
)

// runExperiments renders the registry listing to w.
func runExperiments(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ioschedbench experiments")
		fmt.Fprintln(os.Stderr, "\nLists the registered experiments in the canonical \"all\" order.")
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	// Grid shapes are configuration-dependent; show them at the default
	// scale the CLI runs without flags.
	rc := experiment.ShardParams{Seed: 1}.Context(1)
	headers := []string{"name", "grid", "cell key", "payload", "repro", "csv", "description"}
	var rows [][]string
	for _, e := range experiment.All() {
		g, err := e.Grid(rc)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name(), err)
		}
		grid, key, payload := "-", "-", "-"
		if c := e.Codec(); c.New != nil {
			grid = fmt.Sprintf("%dx%d", g.Points, g.Systems)
			key = e.CellKey()
			// The payload column names the codec version and whether binary
			// shard files pack this experiment's cells natively (a codec is
			// registered under the experiment's name and version) or carry
			// them in the generic compact-JSON column.
			payload = fmt.Sprintf("v%d json", c.Version)
			if _, ok := shard.LookupPayloadCodec(e.Name(), c.Version); ok {
				payload = fmt.Sprintf("v%d binary", c.Version)
			}
		}
		repro := "yes"
		if !experiment.Reproducible(e) {
			repro = "no (host)"
		}
		csvName := e.CSVName()
		if csvName == "" {
			csvName = "-"
		}
		rows = append(rows, []string{e.Name(), grid, key, payload, repro, csvName, e.Describe()})
	}
	fmt.Fprintln(w, "Registered experiments (canonical registry order; grids at the default scale):")
	fmt.Fprintln(w)
	fmt.Fprintln(w, textplot.Table(headers, rows))
	fmt.Fprintln(w, "Experiments sharing a cell key are computed once per run; \"-\" marks a")
	fmt.Fprintln(w, "closed-form experiment with no grid to shard. The payload column is the")
	fmt.Fprintln(w, "cell payload version and how -codec binary packs it (binary = a native")
	fmt.Fprintln(w, "columnar codec, json = the generic compact-JSON column).")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "repro \"no (host)\" marks a non-reproducible experiment: its payloads measure")
	fmt.Fprintln(w, "this machine, not the seed, so it runs only when named (excluded from")
	fmt.Fprintln(w, "-experiment all), is never cell-cached, and its shard files carry a host")
	fmt.Fprintln(w, "fingerprint. Run it with the replay subcommand: ioschedbench replay.")
	return nil
}
