// Package coord is the network-native coordinator service behind
// `ioschedbench serve`: the long-running, multi-client promotion of the
// one-shot in-process dispatcher (internal/dispatch).
//
// A Coordinator multiplexes concurrent sweeps. Clients submit a sweep
// (selection, params, shard count, balance mode) and get a run id;
// workers register, heartbeat, lease work units — round-robin shards or
// cost-packed cell batches — and push the computed shard files back over
// HTTP, so workers and coordinator share no filesystem. Each run is a
// dispatch.Ledger behind the coordinator's mutex: the same unit
// lifecycle, journal and progress events as the in-process dispatcher,
// under <dir>/runs/<run-id>/, so `ioschedbench status` reads a
// coordinator run directory unchanged and a restarted coordinator
// resumes every run from its journal. Progress is streamed per run over
// SSE. The ledger also picks what each lease carries and says when a
// lease has run too long. What the coordinator adds is transport:
// leases, heartbeats, the liveness sweeper and the event fan-out.
//
// Failure semantics are the dispatcher's: pushed files pass the same
// validation (outside the lock); a worker that stops heartbeating (or,
// with Options.LeaseTimeout, sits on a lease too long) has its units
// failed, journaled and requeued or, for cost batches, re-split;
// completions race first-completion-wins with duplicates discarded by
// unit, so the merged cover remains byte-identical to the unsharded run
// no matter how many workers died, hung or double-pushed along the way. The protocol is specified in
// docs/COORDINATOR.md; the fault-injection test rig lives in
// internal/coord/coordtest.
package coord
