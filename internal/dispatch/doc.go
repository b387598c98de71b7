// Package dispatch is the fault-tolerant driver for distributed
// experiment sweeps: it fans the shard indices of one run out to a pool
// of workers, detects lost, failed, corrupt and timed-out shards, re-runs
// them by index, and merges the complete cover into the single-shard
// equivalent of the unsharded run.
//
// The driver builds directly on the two invariants the lower layers
// guarantee:
//
//   - internal/exec: a grid cell's randomness derives from its (runner,
//     point, system) path, so a retried shard reproduces its cells
//     byte-identically no matter which worker — or which host, or which
//     attempt — evaluates it;
//   - internal/shard: N shard files form a validated disjoint cover, so
//     the driver can prove per shard (File.ValidateCells) and per run
//     (Merge) that nothing was lost, duplicated or mixed in from another
//     run before it declares the sweep complete.
//
// Validation is registry-driven on top of that: the selection's run
// list comes from experiment.SelectionRuns, and every produced file's
// run headers are checked against the registered experiments
// (experiment.ValidateRuns) — expected grid for the recorded params,
// compatible cell-payload version — so a worker built against a
// different payload layout is a failed attempt, not a silent mis-merge,
// and a newly registered experiment is dispatchable with no change
// here.
//
// Failure handling is therefore entirely mechanical: any attempt that
// errors, times out, or leaves a file that fails validation is simply
// re-queued (a failed cost batch re-split), up to Options.MaxAttempts
// per unit. Dispatched output is byte-identical to the unsharded run —
// enforced by this package's tests and by cmd/ioschedbench's
// TestCLIEndToEnd/dispatch.
//
// # Lifecycle
//
// The unit lifecycle — plan or resume, attempt and steal starts,
// validation, first completion wins, fail → requeue | split, merge — is
// written once, as Ledger, and so is the scheduling policy: Ledger.Next
// picks a worker's unit or steal target, skipping a retry that is not
// due and preferring a worker that has not failed the unit; Expired
// names the copies past their attempt timeout; Wake names the next
// instant either answer changes. The ledger records each lifecycle event
// once (Ledger.record): one clock reading, one journal line, one
// progress event. Run is a Ledger plus worker goroutines, one timer and
// the partial ticker; internal/coord drives one Ledger per run over
// HTTP. A Ledger is single-goroutine and takes its clock as a parameter,
// so tests drive it step by step.
//
// # Workers
//
// Work is delegated through the Worker interface; two backends ship:
//
//   - LocalProcWorker keeps a warm "ioschedbench tasks" child and feeds
//     it one unit per line (ServeTasks is the child side; the protocol
//     is in docs/DISPATCH.md) — the testable default, and what the
//     CLI's "ioschedbench dispatch -workers N" uses (with its own
//     binary). Run and coord.RunWorker release the children on return;
//   - CmdWorker runs a user-supplied command template once per unit
//     (for example "ssh host ioschedbench {args} -out /dev/stdout"),
//     which covers remote hosts, and programs that do not speak the
//     tasks protocol, without this package depending on SSH.
//
// # Journal
//
// Every dispatch appends structured events (plan, batch, attempt, fail,
// done, partial, merged, ...) to a JSONL journal in its working
// directory. A re-run
// with the same directory resumes: shards the journal marks done are
// re-validated from their files and skipped, only missing or invalid
// shards are executed, and attempt numbers continue from the journal's;
// a balanced run re-plans the cells of its unfinished batches. The
// journal also rejects reuse of a directory by a different run
// (selection, shard count, params or balance mismatch).
// ReadJournal decodes any journal — live, finished or dead — into its
// per-shard states, missing indices and failure log; the CLI's "status"
// subcommand is that reader plus formatting.
//
// # Observability
//
// A running dispatch is observable without a second source of truth:
// Options.Progress receives exactly the events the journal records
// (ReadJournalEvents reads them back), and a Tracker folds them with
// ReadJournal's reducer (JournalState.apply) into per-unit state, counts
// and an ETA from observed wall-clock. Options.PartialEvery periodically
// merges the shards completed so far into the working directory's
// partial.json — a valid partial cover file renderable at any moment
// (shard.MergePartial, "ioschedbench merge -partial") and removed once
// the final merge supersedes it.
//
// The shard file format the driver produces and consumes is specified in
// docs/SHARD_FORMAT.md; the journal and progress-event schemas and the
// tasks protocol in docs/DISPATCH.md.
package dispatch
