//! Execution metrics: the quantities the paper's parallelism claims are
//! about.
//!
//! With unbounded processors and unit latencies, `makespan` is the dataflow
//! graph's *critical path* and `avg_parallelism = fired / makespan` is the
//! parallelism the graph exposes — the paper's central measure of how much
//! a translation schema "exploits fine-grain parallelism across
//! statements".

/// Metrics gathered over one execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecStats {
    /// Operators fired.
    pub fired: u64,
    /// Memory reads issued (ordinary + I-structure).
    pub mem_reads: u64,
    /// Memory writes issued.
    pub mem_writes: u64,
    /// Time at which `End` fired (the makespan; with unbounded processors,
    /// the critical path).
    pub makespan: u64,
    /// Operators issued per time step, up to a configurable cap.
    pub profile: Vec<u32>,
    /// Maximum operators issued in any single step.
    pub max_parallelism: u32,
    /// Token collisions observed (only nonzero when collisions are
    /// configured non-fatal).
    pub collisions: u64,
    /// Tokens still pending (in rendezvous slots or in flight) when `End`
    /// fired. A clean translation drains to zero.
    pub leftover_tokens: u64,
    /// I-structure reads that had to be deferred.
    pub deferred_reads: u64,
    /// Distinct iteration tags created.
    pub tags_created: u64,
    /// High-water mark of occupied rendezvous slots — the machine's
    /// waiting-matching (frame memory) pressure, a first-order hardware
    /// cost on explicit-token-store machines like Monsoon.
    pub max_pending_slots: u64,
    /// Compound `Macro` operator firings (each counts once in `fired`).
    pub macro_fires: u64,
    /// Operators whose individual firings were elided by macro-op fusion:
    /// each macro firing of an n-step micro-program adds n−1. Adding this
    /// back to `fired` recovers the unfused firing count.
    pub ops_elided: u64,
}

impl ExecStats {
    /// Average parallelism: operators fired per time step.
    pub fn avg_parallelism(&self) -> f64 {
        if self.makespan == 0 {
            self.fired as f64
        } else {
            self.fired as f64 / self.makespan as f64
        }
    }

    /// One-line summary.
    pub fn summary(&self) -> String {
        format!(
            "fired={} makespan={} avg_par={:.2} max_par={} reads={} writes={} leftover={} macro={}/{}",
            self.fired,
            self.makespan,
            self.avg_parallelism(),
            self.max_parallelism,
            self.mem_reads,
            self.mem_writes,
            self.leftover_tokens,
            self.macro_fires,
            self.ops_elided
        )
    }
}

/// Per-worker scheduler counters, collected by [`crate::scheduler`] with
/// plain (thread-local) arithmetic — always on, no atomics on the hot
/// path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Tasks this worker fully processed.
    pub processed: u64,
    /// Pops from the worker's own run queue (the fast path).
    pub local_pops: u64,
    /// Tasks taken from the global injector.
    pub injector_hits: u64,
    /// Tasks a steal from a sibling's queue put straight into this
    /// worker's batch (tasks, not steal operations). A steal takes half
    /// the victim's queue; the part beyond one batch moves to this
    /// worker's own queue and is counted when it is taken from there, so
    /// `local_pops + injector_hits + steals == processed`.
    pub steals: u64,
    /// Idle episodes in which the worker blocked on the condvar.
    pub parks: u64,
    /// Parked episodes that ended because work appeared (as opposed to
    /// shutdown).
    pub unparks: u64,
    /// Batches of tasks taken from the queues (each batch is one
    /// synchronization, covering up to the scheduler's batch size in
    /// tasks).
    pub batches: u64,
    /// Fault-injected worker-local delays slept ([`crate::chaos`]);
    /// zero on ordinary runs.
    pub chaos_delays: u64,
    /// Batches for which fault injection forced this worker onto the
    /// injector/steal path ahead of its own queue; zero on ordinary
    /// runs.
    pub chaos_forced_steals: u64,
}

/// Metrics of one threaded-executor invocation, surfaced in
/// [`crate::parallel::ParOutcome`]. A solo run
/// ([`crate::parallel::run_threaded`]) fills every field; a request of a
/// serving session leaves the scheduler-level ones (`workers`,
/// `max_pending_slots`, `slot_shard_high_water`) empty, because the
/// workers and the slot table are shared — [`ServeStats`] reports them
/// once per session. All counters are cheap relaxed atomics or
/// thread-local tallies — they are always on.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParMetrics {
    /// Per-worker scheduler counters, indexed by worker.
    pub workers: Vec<WorkerStats>,
    /// Tokens of the invocation that fired an operator or merged into a
    /// rendezvous slot: `tokens_processed == fired + merged` on every
    /// path. On a clean solo run this is also the sum of the per-worker
    /// `processed`; tokens drained as tombstones after a failure are
    /// counted only there.
    pub tokens_processed: u64,
    /// Tokens that rendezvoused into a partially-filled slot without
    /// completing it.
    pub merged: u64,
    /// Always 0. It counted joins completed by a worker-local two-input
    /// rendezvous fast path, which the single threaded engine does not
    /// have (it fired 0 times on `loop_nest` and in under 1% of tokens
    /// on the widest benchmark kernel); the field stays so readers of
    /// the metric keep compiling.
    pub fast_path_fires: u64,
    /// High-water mark of simultaneously occupied rendezvous slots across
    /// the whole table — the waiting-matching (frame memory) pressure,
    /// the parallel analogue of [`ExecStats::max_pending_slots`].
    pub max_pending_slots: u64,
    /// Per-shard high-water marks of the rendezvous-slot table.
    pub slot_shard_high_water: Vec<u64>,
    /// Distinct iteration tags interned (tag-interner occupancy).
    pub tags_created: u64,
    /// I-structure reads that arrived before their write and were
    /// deferred.
    pub deferred_reads: u64,
    /// Peak number of simultaneously outstanding deferred reads.
    pub deferred_read_peak: u64,
    /// Compound `Macro` operator firings across all workers.
    pub macro_fires: u64,
    /// Operator firings elided by macro-op fusion (n−1 per firing of an
    /// n-step macro); `fired + ops_elided` recovers the unfused count.
    pub ops_elided: u64,
    /// Faults actually injected by the chaos plan (all zero on
    /// ordinary runs — asserted by the bench harness).
    pub chaos: crate::chaos::ChaosTallies,
}

impl ParMetrics {
    /// One-line summary.
    pub fn summary(&self) -> String {
        let steals: u64 = self.workers.iter().map(|w| w.steals).sum();
        let parks: u64 = self.workers.iter().map(|w| w.parks).sum();
        format!(
            "processed={} merged={} macro={}/{} steals={} parks={} max_slots={} tags={} deferred={}",
            self.tokens_processed,
            self.merged,
            self.macro_fires,
            self.ops_elided,
            steals,
            parks,
            self.max_pending_slots,
            self.tags_created,
            self.deferred_reads
        )
    }
}

/// Session-level metrics of one multiplexed serving run
/// ([`crate::serve::serve`]): what the *shared pool* did across every
/// admitted invocation. Per-invocation quantities (fired, merged, tags,
/// deferred reads) live in each request's own
/// [`crate::parallel::ParOutcome::metrics`]; the per-worker scheduler
/// counters only exist here, because the workers are shared and their
/// batches freely interleave tokens of different invocations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeStats {
    /// Requests admitted (every `submit`, including ones that later
    /// failed).
    pub requests: u64,
    /// Requests that completed with an `Ok` outcome.
    pub completed_ok: u64,
    /// Requests that completed with a typed `MachineError`.
    pub failed: u64,
    /// Highest number of simultaneously inflight invocations observed —
    /// at most the session's admission window (`max_inflight`).
    pub peak_inflight: u64,
    /// Per-worker scheduler counters for the whole session, indexed by
    /// worker.
    pub workers: Vec<WorkerStats>,
    /// Tokens processed across all invocations (sum of the per-worker
    /// `processed`).
    pub tokens_processed: u64,
    /// High-water mark of occupied rendezvous slots across the shared
    /// (invocation-keyed) table — the session's waiting-matching
    /// pressure, the multiplexed analogue of
    /// [`ParMetrics::max_pending_slots`].
    pub max_pending_slots: u64,
    /// Faults injected by the chaos plan over the whole session (all
    /// zero on ordinary runs).
    pub chaos: crate::chaos::ChaosTallies,
}

impl ServeStats {
    /// One-line summary.
    pub fn summary(&self) -> String {
        let steals: u64 = self.workers.iter().map(|w| w.steals).sum();
        let parks: u64 = self.workers.iter().map(|w| w.parks).sum();
        format!(
            "requests={} ok={} failed={} peak_inflight={} processed={} steals={} parks={} max_slots={}",
            self.requests,
            self.completed_ok,
            self.failed,
            self.peak_inflight,
            self.tokens_processed,
            steals,
            parks,
            self.max_pending_slots
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_metrics_summary_sums_workers() {
        let m = ParMetrics {
            workers: vec![
                WorkerStats { steals: 2, parks: 1, ..Default::default() },
                WorkerStats { steals: 3, parks: 4, ..Default::default() },
            ],
            tokens_processed: 10,
            merged: 4,
            ..Default::default()
        };
        let s = m.summary();
        assert!(s.contains("steals=5"), "{s}");
        assert!(s.contains("parks=5"), "{s}");
        assert!(s.contains("processed=10"), "{s}");
    }

    #[test]
    fn avg_parallelism_guards_zero_makespan() {
        let s = ExecStats {
            fired: 5,
            makespan: 0,
            ..Default::default()
        };
        assert_eq!(s.avg_parallelism(), 5.0);
        let s2 = ExecStats {
            fired: 10,
            makespan: 4,
            ..Default::default()
        };
        assert_eq!(s2.avg_parallelism(), 2.5);
        assert!(s2.summary().contains("avg_par=2.50"));
    }
}
