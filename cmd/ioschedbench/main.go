// Command ioschedbench regenerates every table and figure of the paper's
// evaluation (Section V) plus the motivation, ablation and extension
// experiments. The experiments come from a pluggable registry
// (internal/experiment): run "ioschedbench experiments" for the live
// list. A few:
//
//	ioschedbench -experiment fig5        # schedulability vs utilisation
//	ioschedbench -experiment fig6        # Ψ of the offline methods
//	ioschedbench -experiment fig7        # Υ of the offline methods
//	ioschedbench -experiment table1      # hardware cost model vs paper
//	ioschedbench -experiment motivation  # NoC jitter vs pre-loaded controller
//	ioschedbench -experiment ablation    # design-choice variants
//	ioschedbench -experiment multidevice # partitioned-controller scaling
//	ioschedbench -experiment tailq       # per-job quality tail distribution
//	ioschedbench -experiment all
//
// The replay subcommand measures delivered I/O timing instead of
// computing it: it replays the static scheduler's output against this
// machine's clock on pinned executor threads (internal/replay) and
// reports dispatch-jitter distributions. Its experiments are
// non-reproducible — the payloads measure the host, not the seed — so
// they are excluded from "all", never cell-cached, and their shard
// files carry a host fingerprint. See docs/REPLAY.md:
//
//	ioschedbench replay                  # jitter at the default scale
//	ioschedbench replay -tick 10us -cap 50ms -no-pin -out jitter.json
//
// The default configuration is a calibrated scale-down (100 systems per
// point, GA 60×80); -paperscale switches to the paper's 1000 systems and
// GA 300×500, which takes hours. All runs are deterministic in -seed:
// the runners fan work across -parallel workers (0 = one per CPU) on the
// deterministic execution engine, so the output is byte-identical at
// every -parallel value.
//
// # Sharding
//
// Paper-scale sweeps split across processes — or machines — with
// -shards/-shard-index: each invocation evaluates its round-robin share
// of every experiment grid and writes the cells to a versioned JSON file
// instead of rendering output. The merge subcommand reassembles the
// shard files and renders output byte-identical to the unsharded run:
//
//	for i in 0 1 2; do
//	    ioschedbench -paperscale -shards 3 -shard-index $i -out shard$i.json &
//	done; wait
//	ioschedbench merge shard0.json shard1.json shard2.json
//
// Every shard must run with the same experiment flags (-experiment,
// -seed, -systems, …); merge verifies this from the parameters recorded
// in each file and refuses to mix runs, naming the offending file and
// parameter. -parallel is per-host and may differ. If a shard is lost,
// re-run just that index: cells derive their seeds from their grid
// position, so a re-run reproduces them exactly.
//
// -cells evaluates an explicit cell set instead of a round-robin share
// ("fig5=0-7;fig6=2,5" — one clause per selected run, ascending global
// cell indices) and writes a cell-batch file; merge reassembles a set
// of batch files the same way, discarding overlap first-completion-wins
// (work stealing computes some cells twice; determinism makes both
// copies byte-identical). Batches are the unit of balanced dispatch.
//
// -codec selects the cell-file container this process writes: json (the
// human-readable default) or binary, a compact columnar container about
// a tenth the size at paper scale. Readers always auto-detect per file,
// so shard sets and dispatch directories may mix encodings and still
// merge byte-identical to the unsharded run. The layouts are specified
// in docs/SHARD_FORMAT.md. The cell cache has one pack format of its own
// (docs/CACHE.md) that -codec does not select.
//
// # Dispatch
//
// The dispatch subcommand automates the shard → retry → merge loop: it
// fans the shard indices out to a pool of workers, re-runs shards whose
// worker crashed, timed out or wrote a corrupt or partial file, and
// renders the merged result — still byte-identical to the unsharded run:
//
//	ioschedbench dispatch -workers 3 -retries 2 -paperscale -dir sweep/
//
// Each local worker starts this binary once, as a warm "ioschedbench
// tasks" child, and feeds it one shard or batch at a time (the tasks
// protocol in docs/DISPATCH.md; it is the worker protocol, not a user
// command). -worker command templates cover remote hosts instead, run
// once per unit:
//
//	ioschedbench dispatch -shards 8 -retries 2 -dir sweep/ \
//	    -worker 'ssh host1 ioschedbench {args} -out /dev/stdout' \
//	    -worker 'ssh host2 ioschedbench {args} -out /dev/stdout'
//
// With -dir set, an interrupted dispatch resumes: completed shards are
// journalled and skipped, only missing indices re-run.
//
// -balance cost replaces the fixed round-robin shares with cell batches
// packed by the experiments' per-cell cost model (a resume re-packs the
// missing cells under costs refined by observed wall-clock from the
// journal), and -steal lets idle workers race a duplicate copy of the
// heaviest straggling batch — first completion wins. Neither can change
// a byte of the merged output.
//
// # Streaming and observability
//
// Long sweeps need not be opaque until they finish. dispatch -progress
// draws a live status line (per-shard state and an ETA from observed
// shard wall-clock); dispatch -partial-every keeps a provisional merge
// of everything completed so far in <dir>/partial.json; the status
// subcommand reads any dispatch's journal — live or dead — and names
// exactly the missing shard indices; and merge -partial renders
// provisional, coverage-annotated figures from whatever shard files
// exist:
//
//	ioschedbench dispatch -workers 3 -dir sweep/ -progress -partial-every 5m &
//	ioschedbench status sweep/
//	ioschedbench merge -partial sweep/partial.json
//
// Partial output converges: once the cover completes, the annotations
// disappear and the output is byte-identical to the unsharded run.
//
// # Coordinator service
//
// Where dispatch drives one sweep from one process over a shared
// filesystem, the serve subcommand runs a long-lived coordinator that
// workers connect to over HTTP and push result files back to — no
// shared filesystem, multiple concurrent sweeps, and journalled state a
// restart resumes from:
//
//	ioschedbench serve -dir state/ &
//	ioschedbench work -connect http://localhost:8337 &   # per machine
//	ioschedbench submit -connect http://localhost:8337 -wait -shards 8
//
// A worker that crashes or goes silent mid-unit is detected by
// heartbeat timeout and its units reassigned; duplicate completions are
// discarded first-completion-wins, so the merged output stays
// byte-identical to the unsharded run regardless of failures. The wire
// protocol is specified in docs/COORDINATOR.md.
//
// The shard file format is specified in docs/SHARD_FORMAT.md, the
// journal and progress-event schemas in docs/DISPATCH.md, the registry
// and its extension walkthrough in docs/EXPERIMENTS.md, and the full
// flag reference in docs/CLI.md.
package main

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cellcache"
	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/shard"
	"repro/internal/textplot"
)

// subcommands maps each subcommand name to its entry point. Every one
// fails the same way: "ioschedbench <name>: <error>" and exit 1, or exit
// 2 for an unknown -experiment (see fail).
var subcommands = map[string]func(args []string) error{
	"merge":       runMerge,
	"dispatch":    runDispatch,
	"status":      func(args []string) error { return runStatus(args, os.Stdout) },
	"experiments": func(args []string) error { return runExperiments(args, os.Stdout) },
	"bench":       func(args []string) error { return runBench(args, os.Stdout) },
	"replay":      runReplay,
	"serve":       runServe,
	"work":        runWork,
	"submit":      runSubmit,
	"trace":       func(args []string) error { return runTrace(args, os.Stdout) },
	// The worker protocol of a warm dispatch.LocalProcWorker child, not a
	// user command.
	dispatch.TasksCommand: runTasks,
}

func main() {
	if len(os.Args) > 1 {
		if run, ok := subcommands[os.Args[1]]; ok {
			if err := run(os.Args[2:]); err != nil {
				fail(fmt.Errorf("%s: %w", os.Args[1], err))
			}
			return
		}
	}
	if err := runTask(os.Args[1:], false); err != nil {
		fail(err)
	}
}

// taskArgs is one parsed single-run invocation: the top-level command
// line, or one line of the tasks loop.
type taskArgs struct {
	rf         *runFlags
	cf         *cacheFlags
	codec      *string
	csvDir     *string
	parallel   *int
	shards     *int
	shardIndex *int
	cells      *string
	out        *string
}

// runTask evaluates one single-run invocation from its arguments: a
// shard (-shards/-shard-index), a cell batch (-cells) or a rendered
// sweep. The one-shot command line and every line of the tasks loop run
// through it, so there is one way to evaluate a shard or batch.
func runTask(args []string, task bool) error {
	a, err := parseTask(args, task)
	if err != nil {
		return err
	}
	return a.run()
}

// parseTask parses one invocation's flags. A task line (task true) gets
// flag errors back instead of usage output and an exit, and must write
// its cell file and nothing else: it needs -out, and -csv or arguments
// beyond the flags are errors. Rendering is thereby one-shot only, so a
// tasks child's stdout carries replies only.
func parseTask(args []string, task bool) (*taskArgs, error) {
	mode := flag.ExitOnError
	if task {
		mode = flag.ContinueOnError
	}
	fs := flag.NewFlagSet(os.Args[0], mode)
	if task {
		fs.SetOutput(io.Discard)
	}
	a := &taskArgs{
		rf:         registerRunFlags(fs),
		cf:         registerCacheFlags(fs),
		codec:      registerCodecFlag(fs),
		csvDir:     fs.String("csv", "", "directory to write CSV result files into"),
		parallel:   fs.Int("parallel", 0, "worker goroutines (0 = one per CPU, 1 = serial); never changes results"),
		shards:     fs.Int("shards", 0, "split the experiment grids into this many shards (0 = run unsharded)"),
		shardIndex: fs.Int("shard-index", 0, "which shard this process evaluates, in [0,shards)"),
		cells:      fs.String("cells", "", "evaluate exactly these cells (\"fig5=0-2,9;fig6=\") and write a cell-batch file to -out; replaces -shards/-shard-index"),
		out:        fs.String("out", "", "shard cell file to write (required with -shards or -cells; implies -shards 1 alone)"),
	}
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if task {
		switch {
		case fs.NArg() > 0:
			return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
		case *a.out == "":
			return nil, fmt.Errorf("a task writes a cell file: -out is required")
		case *a.csvDir != "":
			return nil, fmt.Errorf("-csv renders; a task only writes its cell file")
		}
	}
	return a, nil
}

// run evaluates the parsed invocation.
func (a *taskArgs) run() error {
	params, err := a.rf.shardParams()
	if err != nil {
		return err
	}
	codec, err := shard.ParseEncoding(*a.codec)
	if err != nil {
		return err
	}
	cache, err := a.cf.open()
	if err != nil {
		return err
	}
	if *a.cells != "" {
		if *a.shards > 0 {
			return fmt.Errorf("-cells and -shards are mutually exclusive")
		}
		return writeBatch(*a.rf.which, params, *a.parallel, *a.cells, *a.out, cache, codec)
	}
	if *a.shards > 0 || *a.out != "" {
		n := *a.shards
		if n == 0 {
			n = 1
		}
		return writeShard(*a.rf.which, params, *a.parallel, n, *a.shardIndex, *a.out, cache, codec)
	}
	src := &cellSource{computed: make(map[string][]shard.Cell)}
	return render(*a.rf.which, params.Context(*a.parallel).WithCache(cache), src, *a.csvDir)
}

// runTasks is the tasks subcommand: the warm child of a
// dispatch.LocalProcWorker. It evaluates one task line from stdin at a
// time through runTask and answers each on stdout, until stdin closes
// (protocol: docs/DISPATCH.md).
func runTasks(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	return dispatch.ServeTasks(os.Stdin, os.Stdout, func(args []string) error {
		return runTask(args, true)
	})
}

// cacheFlags holds the cell-cache flags shared by the top-level command
// and the dispatch subcommand. The cache is host-local (like -parallel):
// it never changes results — hits are byte-identical to recomputation —
// so it is not part of the run params and never forwarded through
// dispatch.Spec.WorkerArgs (the dispatch CLI forwards it to its local
// workers itself).
type cacheFlags struct {
	dir     *string
	noCache *bool
}

func registerCacheFlags(fs *flag.FlagSet) *cacheFlags {
	return &cacheFlags{
		dir:     fs.String("cache-dir", "", "content-addressed cell cache directory (default: $IOSCHEDBENCH_CACHE_DIR; empty = no caching)"),
		noCache: fs.Bool("no-cache", false, "disable the cell cache even when -cache-dir or $IOSCHEDBENCH_CACHE_DIR is set"),
	}
}

// open resolves the flags (and the IOSCHEDBENCH_CACHE_DIR fallback) into
// an opened store, or nil when caching is off.
func (c *cacheFlags) open() (*cellcache.Store, error) {
	if *c.noCache {
		return nil, nil
	}
	dir := *c.dir
	if dir == "" {
		dir = os.Getenv("IOSCHEDBENCH_CACHE_DIR")
	}
	if dir == "" {
		return nil, nil
	}
	return cellcache.Open(dir)
}

// registerCodecFlag registers the shared -codec flag: which cell-file
// encoding this process writes (shard files, cell batches). It is
// host-local like -parallel and -cache-dir — readers
// auto-detect the encoding per file, so any mix of settings across a
// worker pool merges identically — and is therefore never part of the
// run params.
func registerCodecFlag(fs *flag.FlagSet) *string {
	return fs.String("codec", "", "cell-file encoding to write: json (default) or binary; readers auto-detect either")
}

// resolvedDir returns the effective cache directory ("" = caching off),
// for forwarding to worker subprocesses.
func (c *cacheFlags) resolvedDir() string {
	if *c.noCache {
		return ""
	}
	if *c.dir != "" {
		return *c.dir
	}
	return os.Getenv("IOSCHEDBENCH_CACHE_DIR")
}

// runFlags holds the experiment-run flags shared by the top-level command
// and the dispatch subcommand, so both spell the same run identically
// (dispatch forwards them to its workers via dispatch.Spec.WorkerArgs).
type runFlags struct {
	which      *string
	systems    *int
	seed       *int64
	gaPop      *int
	gaGens     *int
	paperScale *bool
	ablU       *float64
}

func registerRunFlags(fs *flag.FlagSet) *runFlags {
	// The -experiment value set comes from the registry, so a newly
	// registered experiment is selectable with no CLI edit.
	usage := strings.Join(experiment.Names(), "|") + "|" + experiment.ExpAll
	return &runFlags{
		which:      fs.String("experiment", experiment.ExpAll, usage),
		systems:    fs.Int("systems", 0, "systems per utilisation point (0 = config default)"),
		seed:       fs.Int64("seed", 1, "random seed"),
		gaPop:      fs.Int("gapop", 0, "GA population (0 = config default)"),
		gaGens:     fs.Int("gagens", 0, "GA generations (0 = config default)"),
		paperScale: fs.Bool("paperscale", false, "use the paper's full experiment scale"),
		ablU:       fs.Float64("ablation-u", 0.6, "utilisation for the ablation study"),
	}
}

// shardParams resolves the registered flags into run params. A zero
// -ablation-u would silently resolve to the 0.6 default (ShardParams
// treats the zero value as "unset"); reject it rather than mislabel the
// run.
func (r *runFlags) shardParams() (experiment.ShardParams, error) {
	if *r.ablU <= 0 {
		return experiment.ShardParams{}, fmt.Errorf("-ablation-u %v: the study utilisation must be positive", *r.ablU)
	}
	return experiment.ShardParams{
		PaperScale:    *r.paperScale,
		Systems:       *r.systems,
		Seed:          *r.seed,
		GAPopulation:  *r.gaPop,
		GAGenerations: *r.gaGens,
		AblationU:     *r.ablU,
	}, nil
}

// fail prints the error and exits — with the historical code 2 for a bad
// -experiment value (on the sharded and unsharded paths alike), 1
// otherwise.
func fail(err error) {
	fmt.Fprintf(os.Stderr, "ioschedbench: %v\n", err)
	if errors.Is(err, experiment.ErrUnknownExperiment) {
		os.Exit(2)
	}
	os.Exit(1)
}

// writeShard evaluates one shard of the selection's grids and writes the
// cell file. Progress goes to stderr: stdout stays reserved for rendered
// results, so sharded runs compose with shells and Makefiles the same way
// unsharded runs do.
func writeShard(selection string, p experiment.ShardParams, parallel, shards, index int, out string, cache *cellcache.Store, codec string) error {
	if out == "" {
		return fmt.Errorf("sharded runs need -out <file> for the cell file")
	}
	f, err := experiment.RunShardCached(selection, p, parallel, shards, index, cache)
	if err != nil {
		return err
	}
	if err := f.WriteFileAs(out, codec); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ioschedbench: wrote shard %d/%d of %q (%d cells across %d runs) to %s\n",
		index, shards, selection, f.CellCount(), len(f.Runs), out)
	return nil
}

// writeBatch evaluates exactly the cells of a -cells spec and writes the
// cell-batch file (shard.BatchInfo header) — the worker side of balanced
// dispatch, and usable by hand for surgical re-runs. The spec must name
// the selection's runs in their canonical order, so a batch file always
// merges against its siblings without reordering.
func writeBatch(selection string, p experiment.ShardParams, parallel int, spec, out string, cache *cellcache.Store, codec string) error {
	if out == "" {
		return fmt.Errorf("-cells needs -out <file> for the cell-batch file")
	}
	names, err := experiment.SelectionRuns(selection)
	if err != nil {
		return err
	}
	specNames, sets, err := shard.ParseCellSpec(spec)
	if err != nil {
		return err
	}
	if len(specNames) != len(names) {
		return fmt.Errorf("-cells names %d runs, selection %q has %d (%s)",
			len(specNames), selection, len(names), strings.Join(names, ","))
	}
	for i, n := range specNames {
		if n != names[i] {
			return fmt.Errorf("-cells run %d is %q, want %q (the selection's canonical order)", i, n, names[i])
		}
	}
	f, err := experiment.RunBatchCached(selection, p, parallel, sets, cache)
	if err != nil {
		return err
	}
	if err := f.WriteFileAs(out, codec); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ioschedbench: wrote cell batch of %q (%d cells across %d runs) to %s\n",
		selection, f.CellCount(), len(f.Runs), out)
	return nil
}

// runMerge reassembles shard files and renders the selection exactly as
// the unsharded run would have. With -partial it accepts any consistent
// subset of a run's shard files — including partial cover files a
// previous -partial merge (or the dispatch driver's -partial-every)
// wrote — and renders provisional output with explicit coverage
// annotations; once the set is complete the output is byte-identical to
// the strict merge's, annotations and all gone.
func runMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	csvDir := fs.String("csv", "", "directory to write CSV result files into")
	out := fs.String("out", "", "also write the merged cell file to this path (a valid 1-shard file; with -partial, a partial cover file)")
	partial := fs.Bool("partial", false, "accept an incomplete shard set and render provisional results with coverage annotations")
	codecF := registerCodecFlag(fs)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ioschedbench merge [-partial] [-codec json|binary] [-csv dir] [-out merged.json] shard.json ...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	codec, err := shard.ParseEncoding(*codecF)
	if err != nil {
		return err
	}
	paths := fs.Args()
	if len(paths) == 0 {
		fs.Usage()
		return fmt.Errorf("no shard files given")
	}
	files := make([]*shard.File, len(paths))
	for i, path := range paths {
		f, err := shard.ReadFile(path)
		if err != nil {
			return err
		}
		files[i] = f
	}
	allBatch := true
	for _, f := range files {
		if f.Batch == nil {
			allBatch = false
			break
		}
	}
	if allBatch {
		// Cell-batch files (balanced dispatch, or -cells by hand) merge by
		// cell key: the set must cover each run's grid exactly, and
		// overlapping cells — steal races — keep the first completion.
		if *partial {
			return fmt.Errorf("-partial renders shard covers; cell-batch files always merge strictly (drop -partial)")
		}
		merged, dups, err := shard.MergeBatches(files)
		if err != nil {
			return err
		}
		if dups > 0 {
			fmt.Fprintf(os.Stderr, "ioschedbench: merge: %d duplicate cells discarded (first completion wins)\n", dups)
		}
		if *out != "" {
			if err := merged.WriteFileAs(*out, codec); err != nil {
				return err
			}
		}
		return renderMerged(merged, *csvDir)
	}
	if *partial {
		cover, err := shard.MergePartial(files)
		if err != nil {
			return err
		}
		if *out != "" {
			if err := cover.File.WriteFileAs(*out, codec); err != nil {
				return err
			}
		}
		// A cover grown to completion renders exactly as the full merge.
		return renderCover(cover, *csvDir)
	}
	merged, err := shard.Merge(files)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := merged.WriteFileAs(*out, codec); err != nil {
			return err
		}
	}
	return renderMerged(merged, *csvDir)
}

// renderMerged renders a merged cell file exactly as the unsharded run
// would have, rebuilding the configuration from the recorded params. The
// merge and dispatch subcommands share it, which is what makes their
// stdout byte-identical to the unsharded run's.
func renderMerged(merged *shard.File, csvDir string) error {
	return renderCover(&shard.PartialCover{File: merged}, csvDir)
}

// renderCover renders the runs a shard cover recorded under the params
// it recorded: a complete cover exactly as the unsharded run, an
// incomplete one provisionally (partial.go).
func renderCover(cover *shard.PartialCover, csvDir string) error {
	var params experiment.ShardParams
	if err := json.Unmarshal(cover.File.Params, &params); err != nil {
		return fmt.Errorf("recorded params: %w", err)
	}
	src := &cellSource{runs: make(map[string][]shard.Cell, len(cover.File.Runs))}
	for _, r := range cover.File.Runs {
		src.runs[r.Experiment] = r.Cells
	}
	if !cover.Complete() {
		src.cover = cover
	}
	return render(cover.File.Selection, params.Context(0), src, csvDir)
}

// cellSource is what render draws cells from: the runs a merged file or
// a shard cover recorded, or cells it computes in process.
type cellSource struct {
	// runs holds each recorded run's cells by experiment name.
	runs map[string][]shard.Cell
	// computed, when non-nil, replaces runs: cells computed in process,
	// by cell key, so Figures 6 and 7 share one computation.
	computed map[string][]shard.Cell
	// cover is set only for an incomplete cover: its results are
	// provisional.
	cover *shard.PartialCover
}

// errRunNotRecorded marks a registered grid experiment absent from a
// cover's recorded runs (a file from before the experiment registered).
var errRunNotRecorded = fmt.Errorf("shard files carry no cells for this experiment")

// result aggregates e's result and its coverage from the source.
func (s *cellSource) result(e experiment.Experiment, rc experiment.RunContext) (experiment.Result, experiment.Coverage, error) {
	name := e.Name()
	var cells []shard.Cell
	// A closed-form experiment has no cells: it is aggregated from none
	// at render time on every path.
	if e.Codec().New != nil {
		var ok bool
		if s.computed != nil {
			if cells, ok = s.computed[e.CellKey()]; !ok {
				var err error
				if cells, _, err = experiment.RunCells(name, rc, nil); err != nil {
					return nil, experiment.Coverage{}, err
				}
				s.computed[e.CellKey()] = cells
			}
		} else if cells, ok = s.runs[name]; !ok {
			return nil, experiment.Coverage{}, errRunNotRecorded
		}
	}
	if s.cover != nil {
		return experiment.FromCellsPartial(name, rc, cells)
	}
	res, err := experiment.FromCells(name, rc, cells)
	return res, experiment.Coverage{}, err
}

// render draws the selected experiments in the registry's canonical
// order from the cell source. Every source aggregates and renders
// through the same registry hooks, which is what makes merged output
// byte-identical to an unsharded run's — and what makes a newly
// registered experiment renderable with no CLI edit. Only an incomplete
// cover adds its banner, the gap notes and the coverage column.
//
// An "all" cover renders the grid experiments the file recorded: a file
// written before an experiment registered legitimately lacks its cells,
// and its recorded run list — not this binary's registry — says what
// the sweep computed. A specifically selected experiment must be
// present.
func render(which string, rc experiment.RunContext, src *cellSource, csvDir string) error {
	if src.cover != nil {
		printPartialBanner(src.cover)
	}
	ran := false
	for _, e := range experiment.All() {
		name := e.Name()
		if which != experiment.ExpAll && which != name {
			continue
		}
		if which == experiment.ExpAll && !experiment.Reproducible(e) {
			// Non-reproducible experiments (wall-clock measurements) run
			// only when named, so "all" output stays a pure function of the
			// seed on every machine.
			continue
		}
		res, cov, err := src.result(e, rc)
		if err == errRunNotRecorded && which == experiment.ExpAll {
			continue
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		ran = true
		fmt.Print(e.Header(rc))
		var gap *experiment.Coverage
		if !cov.Complete() {
			gap = &cov
			printGap(e, res, cov, src.cover.Missing)
		}
		if res == nil {
			continue
		}
		if err := renderBody(e, res, gap, csvDir); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	if !ran {
		// A hand-edited selection passes Decode and the merges; fail
		// instead of printing nothing.
		return fmt.Errorf("%w %q", experiment.ErrUnknownExperiment, which)
	}
	return nil
}

// renderBody renders a result below its header: optional chart, table
// (with a per-point coverage column when cov is a partial cover whose
// points map to the table rows), optional footer and CSV.
func renderBody(e experiment.Experiment, res experiment.Result, cov *experiment.Coverage, csvDir string) error {
	if p, ok := res.(experiment.Plottable); ok {
		x, series := p.Series()
		plotSeries(p.PlotTitle(), x, series)
	}
	h, rows := res.Rows()
	if cov != nil && len(rows) == len(cov.PointHave) {
		h, rows = coverageColumn(h, rows, *cov)
	}
	fmt.Println(textplot.Table(h, rows))
	if f, ok := res.(experiment.Footnoted); ok {
		if note := f.Footer(); note != "" {
			fmt.Println(note)
		}
	}
	if e.CSVName() != "" {
		return writeCSV(csvDir, e.CSVName(), h, rows)
	}
	return nil
}

func plotSeries(title string, xlabels []string, cs []experiment.Curveable) {
	var series []textplot.Series
	for _, c := range cs {
		series = append(series, textplot.Series{Name: c.Name, Values: c.Values})
	}
	fmt.Println(textplot.Chart(title, xlabels, series, 0, 1, 12))
}

func writeCSV(dir, name string, headers []string, rows [][]string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(dir + "/" + name)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(headers); err != nil {
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}
