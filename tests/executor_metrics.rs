//! Observability contracts of the threaded executor: the always-on
//! metrics in [`cf2df::machine::ParMetrics`] must be self-consistent on
//! every corpus program at every worker count, the trace ring must
//! capture firings on success and failure alike, and a deadlocked graph
//! must be reported with the partially-filled rendezvous slots that
//! caused it — not a generic "quiesced without End" string. The
//! scheduler-level fields (per-worker stats, slot-table pressure) are
//! filled on the failure path too: the benchmark's per-layer trace
//! reads them.

use cf2df::cfg::{MemLayout, VarTable};
use cf2df::core::pipeline::{translate, TranslateOptions};
use cf2df::dfg::{ArcKind, Dfg, OpKind, Port};
use cf2df::lang::parse_to_cfg;
use cf2df::machine::{
    compile, run_threaded, run_threaded_compiled_pooled_with, ExecutorPool, FireEvent,
    MachineError, ParConfig, ParOutcome,
};

const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// A solo run of `g` on a fresh pool keeping the last `capacity` fire
/// events.
fn run_threaded_traced(
    g: &Dfg,
    layout: &MemLayout,
    workers: usize,
    capacity: usize,
) -> (Result<ParOutcome, MachineError>, Vec<FireEvent>) {
    let cfg = ParConfig {
        trace_capacity: Some(capacity),
        ..ParConfig::default()
    };
    let cg = compile(g).unwrap();
    let (result, _, trace) =
        run_threaded_compiled_pooled_with(&cg, layout, &ExecutorPool::new(workers), &cfg);
    (result, trace)
}

/// Every processed token either fires an operator or merges into a
/// rendezvous slot; the per-worker tallies must account for all of them.
#[test]
fn metrics_are_self_consistent_across_the_corpus() {
    for (name, src) in cf2df::lang::corpus::all() {
        let parsed = parse_to_cfg(src).unwrap();
        let t = match translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2()) {
            Ok(t) => t,
            Err(_) => continue, // rejected by the stricter schema; covered elsewhere
        };
        let layout = MemLayout::distinct(&t.cfg.vars);
        for workers in WORKERS {
            let out = run_threaded(&t.dfg, &layout, workers)
                .unwrap_or_else(|e| panic!("{name} at {workers} workers: {e}"));
            let m = &out.metrics;
            assert_eq!(m.workers.len(), workers, "{name}: one stats entry per worker");
            assert_eq!(
                m.tokens_processed,
                out.fired + m.merged,
                "{name} at {workers} workers: every token fires or merges"
            );
            let by_worker: u64 = m.workers.iter().map(|w| w.processed).sum();
            assert_eq!(
                by_worker, m.tokens_processed,
                "{name} at {workers} workers: per-worker tallies account for all tokens"
            );
            // Every token came off a queue: popped, injected or stolen.
            let sourced: u64 = m
                .workers
                .iter()
                .map(|w| w.local_pops + w.injector_hits + w.steals)
                .sum();
            assert_eq!(
                sourced, m.tokens_processed,
                "{name} at {workers} workers: every token came from somewhere"
            );
            assert_eq!(
                m.fast_path_fires, 0,
                "{name} at {workers} workers: there is no worker-local fast path"
            );
            let shard_max = m.slot_shard_high_water.iter().copied().max().unwrap_or(0);
            let shard_sum: u64 = m.slot_shard_high_water.iter().sum();
            assert!(
                shard_max <= m.max_pending_slots && m.max_pending_slots <= shard_sum.max(shard_max),
                "{name} at {workers} workers: slot high-water bounds"
            );
            for w in &m.workers {
                assert!(
                    w.unparks <= w.parks,
                    "{name} at {workers} workers: a worker wakes at most once per park"
                );
            }
            if workers == 1 {
                assert_eq!(
                    m.workers[0].steals, 0,
                    "{name}: a lone worker has nobody to steal from"
                );
            }
        }
    }
}

/// A solo run's scheduler-level metrics — one stats entry per worker,
/// the rendezvous table's pressure — are filled on success *and* on
/// failure. A join-heavy graph (unfused schema 2 `loop_nest`, whose
/// loop switches all rendezvous) runs to completion, then again with
/// half the fuel it needs, at every width.
#[test]
fn solo_runs_report_scheduler_metrics_on_success_and_failure() {
    let src = cf2df::bench::workloads::loop_nest(3, 6);
    let parsed = parse_to_cfg(&src).unwrap();
    let opts = TranslateOptions::schema2().with_fuse(false);
    let t = translate(&parsed.cfg, &parsed.alias, &opts).unwrap();
    let layout = MemLayout::distinct(&t.cfg.vars);
    let cg = compile(&t.dfg).unwrap();
    for workers in WORKERS {
        let pool = ExecutorPool::new(workers);
        let clean = ParConfig::default();
        let (ok, m, _) = run_threaded_compiled_pooled_with(&cg, &layout, &pool, &clean);
        let out = ok.unwrap_or_else(|e| panic!("{workers} workers: {e}"));
        assert_eq!(m, out.metrics, "{workers} workers: returned metrics are the outcome's");
        assert_eq!(m.workers.len(), workers, "{workers} workers: stats per worker");
        assert!(m.max_pending_slots > 0, "{workers} workers: slots were occupied");
        assert_eq!(m.tokens_processed, out.fired + m.merged, "{workers} workers");

        let starved = ParConfig {
            fuel: out.fired / 2,
            ..ParConfig::default()
        };
        let (err, m, _) = run_threaded_compiled_pooled_with(&cg, &layout, &pool, &starved);
        assert_eq!(err.unwrap_err(), MachineError::FuelExhausted, "{workers} workers");
        assert_eq!(m.workers.len(), workers, "{workers} workers: stats on failure");
        let by_worker: u64 = m.workers.iter().map(|w| w.processed).sum();
        assert!(by_worker > 0, "{workers} workers: the workers' tallies survive failure");
        assert!(
            m.max_pending_slots > 0,
            "{workers} workers: slot pressure survives failure"
        );
        let shard_max = m.slot_shard_high_water.iter().copied().max().unwrap_or(0);
        assert!(shard_max > 0 && shard_max <= m.max_pending_slots, "{workers} workers");
        assert!(m.tokens_processed > 0, "{workers} workers");
    }
}

/// A graph whose Synch never receives its second input must deadlock,
/// and the error must name the starving slot: operator, tag, and which
/// ports did arrive.
#[test]
fn deadlock_error_names_partially_filled_slots() {
    let mut vars = VarTable::new();
    vars.scalar("x");
    let layout = MemLayout::distinct(&vars);
    let mut g = Dfg::new();
    let s = g.add(OpKind::Start);
    let id = g.add(OpKind::Identity);
    let sy = g.add(OpKind::Synch { inputs: 2 });
    let e = g.add(OpKind::End { inputs: 1 });
    g.connect(Port::new(s, 0), Port::new(id, 0), ArcKind::Access);
    g.connect(Port::new(id, 0), Port::new(sy, 0), ArcKind::Access);
    g.connect(Port::new(sy, 0), Port::new(e, 0), ArcKind::Access);

    let (result, trace) = run_threaded_traced(&g, &layout, 4, 64);
    let MachineError::Deadlock { pending } = result.unwrap_err() else {
        panic!("expected a deadlock report")
    };
    assert!(!pending.is_empty(), "at least one starving slot is named");
    assert!(pending[0].contains("synch2"), "names the operator: {pending:?}");
    assert!(pending[0].contains("root"), "names the tag: {pending:?}");
    assert!(
        pending[0].contains("filled ports [0]"),
        "names the arrived ports: {pending:?}"
    );
    // The trace ring survives the failure path: the Identity between
    // Start and the starving Synch fired before the hang.
    assert!(!trace.is_empty(), "trace is returned on failure");
    assert_eq!(trace[0].op, id);
    let _ = s;
}

/// The same graphs through the traced entry point: the ring observes
/// exactly the fired operators when capacity suffices.
#[test]
fn trace_ring_matches_fired_count_on_corpus_programs() {
    for (name, src) in cf2df::lang::corpus::all().into_iter().take(4) {
        let parsed = parse_to_cfg(src).unwrap();
        let t = match translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2()) {
            Ok(t) => t,
            Err(_) => continue,
        };
        let layout = MemLayout::distinct(&t.cfg.vars);
        let (result, trace) = run_threaded_traced(&t.dfg, &layout, 4, usize::MAX);
        let out = result.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            trace.len() as u64,
            out.fired,
            "{name}: one trace event per firing at unbounded capacity"
        );
        // Sequence numbers are unique and dense.
        let mut seqs: Vec<u64> = trace.iter().map(|ev| ev.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len() as u64, out.fired, "{name}: unique sequence numbers");
    }
}
