//! The four workloads: the programs each one runs, its set-up, and one
//! measured round. Every call into the cf2df crates sits in a span, and
//! every result is checked against the sequential `vonneumann`
//! interpreter, which does not use the translator.

use crate::trace::{Open, Tracer};
use cf2df_bench::prng::Prng;
use cf2df_bench::workloads::{
    array_update_kernel, goto_soup, loop_nest, random_program, GenConfig,
};
use cf2df_cfg::{CoverStrategy, MemLayout};
use cf2df_core::pipeline::{translate, TranslateError, TranslateOptions, Translated};
use cf2df_lang::Parsed;
use cf2df_machine::{
    compile, run_compiled, run_threaded_compiled_pooled_with, serve, vonneumann, CompiledGraph,
    ExecutorPool, MachineConfig, ParConfig, ParOutcome,
};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Structured random programs with aliasing plus irreducible goto
    /// soup, each taken from source text to a checked simulator result.
    CompileMix,
    /// `loop_nest`, serialised by its `acc` reduction.
    ExecNarrow,
    /// A wide `array_update_kernel` (average parallelism above 8).
    ExecWide,
    /// A closed loop of small requests through one `serve` session.
    ServeSmall,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::CompileMix,
        Kind::ExecNarrow,
        Kind::ExecWide,
        Kind::ServeSmall,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::CompileMix => "compile_mix",
            Kind::ExecNarrow => "exec_narrow",
            Kind::ExecWide => "exec_wide",
            Kind::ServeSmall => "serve_small",
        }
    }
}

/// compile_mix's program structures are one fixed seeded draw, so every
/// run translates the same programs; `--seed` sets their inputs.
const DRAW_SEED: u64 = 0x00c0_ffee;
/// 105 random and 20 goto-soup programs: with 120 in all, the p50 and
/// p90 of per-program time fell exactly between two programs' clusters
/// of samples and jumped between them from run to run; with 125 they
/// fall inside one.
const RANDOM_PROGRAMS: usize = 105;
/// Goto-soup sizes, five programs each. Every drawn program finishes
/// within these; `certify` runs away from 10 blocks on (see NOTES.md).
const SOUP_BLOCKS: [usize; 4] = [4, 5, 6, 7];
const SOUP_PER_SIZE: usize = 5;
/// serve_small: requests per session, and requests kept in flight per
/// pool worker. With 4 in flight on 2 workers the request latencies split
/// in two clusters with the median between them, so it jumped from run
/// to run; 4 per worker gives one cluster.
const SERVE_REQUESTS: usize = 256;
const SERVE_INFLIGHT_PER_WORKER: usize = 4;
/// Requests per session when another workload drives `serve`.
const SIDE_REQUESTS: usize = 2;

/// One source program and its seeded inputs.
pub struct Program {
    pub name: String,
    pub src: String,
    /// Picks the consistent aliasing binding the program runs under.
    binding: u64,
}

/// Replace the integer constant of the first top-level line
/// `<name> := <int>;` for each name: the program's input values.
fn set_inputs(src: &str, names: &[String], rng: &mut Prng) -> String {
    let mut lines: Vec<String> = src.lines().map(str::to_owned).collect();
    for name in names {
        let prefix = format!("{name} := ");
        let line = lines
            .iter_mut()
            .find(|l| {
                l.strip_prefix(&prefix)
                    .and_then(|rest| rest.strip_suffix(';'))
                    .is_some_and(|v| v.parse::<i64>().is_ok())
            })
            .unwrap_or_else(|| panic!("generator emitted no input line for {name}"));
        *line = format!("{prefix}{};", rng.range_i64(-5, 20));
    }
    lines.join("\n") + "\n"
}

/// The workload's programs, with inputs made from `seed`.
pub fn programs(kind: Kind, seed: u64) -> Vec<Program> {
    let mut rng = Prng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut add = |name: String, src: String, inputs: Vec<String>, rng: &mut Prng| {
        let src = set_inputs(&src, &inputs, rng);
        out.push(Program {
            name,
            src,
            binding: rng.next_u64(),
        });
    };
    match kind {
        Kind::CompileMix => {
            let mut draw = Prng::seed_from_u64(DRAW_SEED);
            let gen = GenConfig::default();
            let vars: Vec<String> = (0..gen.n_vars).map(|i| format!("v{i}")).collect();
            for i in 0..RANDOM_PROGRAMS {
                let s = draw.next_u64();
                add(
                    format!("random{i}"),
                    random_program(s, &gen),
                    vars.clone(),
                    &mut rng,
                );
            }
            for blocks in SOUP_BLOCKS {
                for j in 0..SOUP_PER_SIZE {
                    let s = draw.next_u64();
                    let xy = vec!["x".to_owned(), "y".to_owned()];
                    add(
                        format!("soup{blocks}_{j}"),
                        goto_soup(s, blocks),
                        xy,
                        &mut rng,
                    );
                }
            }
        }
        Kind::ExecNarrow => add(
            "loop_nest(4,8)".into(),
            loop_nest(4, 8),
            vec!["acc".into()],
            &mut rng,
        ),
        Kind::ExecWide | Kind::ServeSmall => {
            let (arrays, iters) = if kind == Kind::ExecWide {
                (32, 16)
            } else {
                (2, 4)
            };
            let starts = (0..arrays).map(|a| format!("b{a}[0]")).collect();
            let name = format!("array_update_kernel({arrays},{iters})");
            add(name, array_update_kernel(arrays, iters), starts, &mut rng);
        }
    }
    out
}

/// Operations attempted and typed failures, by the call that failed.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: BTreeMap<&'static str, u64>,
}

impl Tally {
    fn attempt<T, E: Display>(&mut self, what: &'static str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| {
            eprintln!("perfbench: {what} failed: {e}");
            self.failed += 1;
            *self.failures.entry(what).or_default() += 1;
        })
        .ok()
    }
}

/// Timing samples gathered over the whole run.
#[derive(Default)]
pub struct Samples {
    /// The workload's unit of work: a program from source to checked
    /// result (compile_mix), a threaded run (exec_*), a request from
    /// submit to collect (serve_small).
    pub latency_ns: Vec<f64>,
    /// Simulator runs.
    pub sim_ns: Vec<f64>,
    /// Units of work per second, one sample per round.
    pub throughput: Vec<f64>,
}

impl Samples {
    /// The samples at the reference host's speed, given the host scale
    /// `k` of the round that took them (see `host_scales`).
    pub fn scaled(self, k: f64) -> Samples {
        Samples {
            latency_ns: self.latency_ns.iter().map(|x| x * k).collect(),
            sim_ns: self.sim_ns.iter().map(|x| x * k).collect(),
            throughput: self.throughput.iter().map(|x| x / k).collect(),
        }
    }

    pub fn extend(&mut self, other: Samples) {
        self.latency_ns.extend(other.latency_ns);
        self.sim_ns.extend(other.sim_ns);
        self.throughput.extend(other.throughput);
    }
}

/// Counts of one round; every round of a run must repeat them exactly.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoundCounts {
    pub signature: Vec<u64>,
    /// Per program: oracle makespan / dataflow makespan.
    pub speedups: Vec<f64>,
    /// Per program: simulator firings, and statements the oracle
    /// executed.
    pub fired: Vec<u64>,
    pub statements: Vec<u64>,
}

/// A program after set-up: its inputs, graph and oracle result.
pub struct Prepared {
    pub cfg_nodes: usize,
    layout: MemLayout,
    oracle: Vec<i64>,
    oracle_makespan: u64,
    oracle_statements: u64,
    pub cg: CompiledGraph,
}

/// Everything a round needs; rebuilt by each set-up.
pub struct State {
    pub progs: Vec<Option<Prepared>>,
    pool: ExecutorPool,
    /// Set-up counts; every set-up of a run must repeat them exactly.
    pub signature: Vec<u64>,
}

pub struct Bench<'a> {
    kind: Kind,
    programs: &'a [Program],
    width: usize,
    /// The CLI's default options: Schema 3, singleton cover, `certify`
    /// and `fuse` on.
    opts: TranslateOptions,
}

impl<'a> Bench<'a> {
    pub fn new(kind: Kind, programs: &'a [Program], width: usize) -> Bench<'a> {
        Bench {
            kind,
            programs,
            width,
            opts: TranslateOptions::schema3(CoverStrategy::Singletons),
        }
    }

    /// Executor workers: one per core, except that serve_small leaves a
    /// core to its generator thread, which is busy submitting and
    /// collecting while the pool runs.
    pub fn pool_width(&self) -> usize {
        match self.kind {
            Kind::ServeSmall => (self.width - 1).max(1),
            _ => self.width,
        }
    }

    /// Parse, translate, compile and interpret every program, and spawn
    /// the pool.
    pub fn setup(&self, tr: &mut Tracer, tally: &mut Tally) -> State {
        let top = tr.open("setup", 0);
        let mut progs = Vec::new();
        let mut signature = Vec::new();
        for (id, p) in self.programs.iter().enumerate() {
            let id = id as u32;
            let prepared = self.prepare(tr, tally, id, p);
            if let Some((prep, counts)) = &prepared {
                signature.extend_from_slice(counts);
                signature.extend([prep.cfg_nodes as u64, prep.oracle_makespan]);
            } else {
                signature.push(u64::MAX);
            }
            progs.push(prepared.map(|(prep, _)| prep));
        }
        let sp = tr.open("machine.pool", 0);
        let pool = ExecutorPool::new(self.pool_width());
        tr.close(sp, &[]);
        tr.close(top, &[]);
        State {
            progs,
            pool,
            signature,
        }
    }

    fn prepare(
        &self,
        tr: &mut Tracer,
        tally: &mut Tally,
        id: u32,
        p: &Program,
    ) -> Option<(Prepared, Vec<u64>)> {
        let (parsed, t, cg) = self.build(tr, tally, id, &p.src)?;
        let bindings = parsed.alias.consistent_bindings();
        let binding = &bindings[(p.binding % bindings.len() as u64) as usize];
        let layout = MemLayout::with_binding(&parsed.cfg.vars, binding);
        let sp = tr.open("machine.vonneumann", id);
        let vn = vonneumann::interpret(&parsed.cfg, &layout, &MachineConfig::unbounded());
        tr.close(sp, &[]);
        let vn = tally.attempt("oracle", vn)?;
        let counts = translation_counts(&t, &cg);
        let prep = Prepared {
            cfg_nodes: parsed.cfg.len(),
            layout,
            oracle: vn.memory,
            oracle_makespan: vn.stats.makespan,
            oracle_statements: vn.statements,
            cg,
        };
        Some((prep, counts))
    }

    /// Source text to compiled graph: `parse_to_cfg`, `translate`,
    /// `compile`.
    fn build(
        &self,
        tr: &mut Tracer,
        tally: &mut Tally,
        id: u32,
        src: &str,
    ) -> Option<(Parsed, Translated, CompiledGraph)> {
        let sp = tr.open("lang.parse", id);
        let parsed = cf2df_lang::parse_to_cfg(src);
        let nodes = parsed.as_ref().map_or(0, |p| p.cfg.len());
        tr.close(sp, &[("cfg_nodes", nodes as f64)]);
        let parsed = tally.attempt("parse", parsed)?;

        let sp = tr.open("core.translate", id);
        let t = translate(&parsed.cfg, &parsed.alias, &self.opts);
        close_translate(tr, sp, &t);
        let t = tally.attempt("translate", t)?;

        let sp = tr.open("machine.compile", id);
        let cg = compile(&t.dfg);
        let bytes = cg.as_ref().map_or(0, |cg| cg.footprint().bytes);
        tr.close(sp, &[("bytes", bytes as f64)]);
        let cg = tally.attempt("compile", cg)?;
        Some((parsed, t, cg))
    }

    /// One round of the workload's measured calls, with its counts and
    /// timings. `Err` is an oracle mismatch, which ends the run.
    pub fn round(
        &self,
        st: &State,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<(RoundCounts, Samples), String> {
        let top = tr.open("round", 0);
        let mut rc = RoundCounts::default();
        let mut samples = Samples::default();
        // Units of work timed this round and their total time.
        let (mut units, mut unit_ns) = (0usize, 0.0);
        for (i, (prog, prep)) in self.programs.iter().zip(&st.progs).enumerate() {
            let Some(prep) = prep else { continue };
            let mut run = Run {
                tr: &mut *tr,
                tally: &mut *tally,
                id: i as u32,
                prog,
                prep,
                pool: &st.pool,
            };
            match self.kind {
                Kind::CompileMix => {
                    let e2e = Instant::now();
                    let sp = run.tr.open("e2e", run.id);
                    let built = self.build(run.tr, run.tally, run.id, &prog.src);
                    let Some((_, t, cg)) = built else {
                        run.tr.close(sp, &[]);
                        continue;
                    };
                    rc.signature.extend(translation_counts(&t, &cg));
                    drop(t);
                    let sim = run.sim(&cg, &mut samples)?;
                    run.tr.close(sp, &[]);
                    let Some((fired, makespan)) = sim else {
                        continue;
                    };
                    let ns = e2e.elapsed().as_nanos() as f64;
                    samples.latency_ns.push(ns);
                    (units, unit_ns) = (units + 1, unit_ns + ns);
                    rc.record(prep, fired, makespan);
                    rc.signature.extend(run.threaded(&cg, fired)?.0);
                    let side = SIDE_REQUESTS;
                    rc.signature
                        .extend(run.serve(&cg, fired, side, side, None)?);
                }
                Kind::ExecNarrow | Kind::ExecWide => {
                    let Some((fired, makespan)) = run.sim(&prep.cg, &mut samples)? else {
                        continue;
                    };
                    rc.record(prep, fired, makespan);
                    let (counts, wall) = run.threaded(&prep.cg, fired)?;
                    rc.signature.extend(counts);
                    if let Some(ns) = wall {
                        samples.latency_ns.push(ns);
                        (units, unit_ns) = (units + 1, unit_ns + ns);
                    }
                    rc.signature.extend(run.serve(&prep.cg, fired, 1, 1, None)?);
                }
                Kind::ServeSmall => {
                    let Some((fired, makespan)) = run.sim(&prep.cg, &mut samples)? else {
                        continue;
                    };
                    rc.record(prep, fired, makespan);
                    rc.signature.extend(run.threaded(&prep.cg, fired)?.0);
                    let inflight = SERVE_INFLIGHT_PER_WORKER * self.pool_width();
                    let mut lat = Vec::with_capacity(SERVE_REQUESTS);
                    let session = Instant::now();
                    let counts =
                        run.serve(&prep.cg, fired, SERVE_REQUESTS, inflight, Some(&mut lat))?;
                    let secs = session.elapsed().as_secs_f64();
                    rc.signature.extend(counts);
                    samples.throughput.push(lat.len() as f64 / secs);
                    samples.latency_ns.extend(lat);
                }
            }
        }
        if units > 0 && self.kind != Kind::ServeSmall {
            samples.throughput.push(units as f64 / (unit_ns / 1e9));
        }
        rc.signature.push(tally.failed);
        tr.close(top, &[]);
        Ok((rc, samples))
    }
}

impl RoundCounts {
    fn record(&mut self, prep: &Prepared, fired: u64, makespan: u64) {
        self.fired.push(fired);
        self.statements.push(prep.oracle_statements);
        self.speedups
            .push(prep.oracle_makespan as f64 / makespan.max(1) as f64);
        self.signature.extend([fired, makespan]);
    }
}

/// Translation counts that must repeat exactly: analyses computed, cache
/// hits, and the graph's size before and after fusion.
fn translation_counts(t: &Translated, cg: &CompiledGraph) -> Vec<u64> {
    vec![
        t.cache_stats.total_computed(),
        t.cache_stats.hits.iter().sum(),
        t.stats.ops as u64,
        t.ops_fused as u64,
        t.stats.macros as u64,
        cg.len() as u64,
    ]
}

/// Close a `core.translate` span, adding its pass records as children.
fn close_translate(tr: &mut Tracer, sp: Open, t: &Result<Translated, TranslateError>) {
    let Ok(t) = t else {
        return tr.close(sp, &[]);
    };
    tr.children(
        &sp,
        t.passes.iter().map(|p| {
            let sizes = vec![
                ("nodes_in", p.nodes_in as f64),
                ("nodes_out", p.nodes_out as f64),
            ];
            (format!("core.pass.{}", p.name), p.wall, sizes)
        }),
    );
    tr.close(
        sp,
        &[
            ("analyses_computed", t.cache_stats.total_computed() as f64),
            ("cache_hits", t.cache_stats.hits.iter().sum::<u64>() as f64),
            ("ops", t.stats.ops as f64),
            ("ops_fused", t.ops_fused as f64),
            ("macros", t.stats.macros as f64),
        ],
    );
}

/// The backends' calls for one prepared program.
struct Run<'r> {
    tr: &'r mut Tracer,
    tally: &'r mut Tally,
    id: u32,
    prog: &'r Program,
    prep: &'r Prepared,
    pool: &'r ExecutorPool,
}

/// Compare a backend's final memory with the oracle's, cell for cell,
/// and its firings with the simulator's.
fn check(
    run: (&Program, &Prepared),
    backend: &str,
    memory: &[i64],
    fired: u64,
    want_fired: u64,
) -> Result<(), String> {
    let (prog, prep) = run;
    if memory != prep.oracle.as_slice() {
        return Err(format!(
            "{backend} result of {} differs from the vonneumann oracle\n{}",
            prog.name, prog.src
        ));
    }
    if fired != want_fired {
        return Err(format!(
            "{backend} fired {fired} operators on {}, the simulator {want_fired}",
            prog.name
        ));
    }
    Ok(())
}

impl Run<'_> {
    /// `run_compiled` on the unbounded machine; returns firings and
    /// makespan.
    fn sim(
        &mut self,
        cg: &CompiledGraph,
        samples: &mut Samples,
    ) -> Result<Option<(u64, u64)>, String> {
        let sp = self.tr.open("machine.exec", self.id);
        let t0 = Instant::now();
        let out = run_compiled(cg, &self.prep.layout, MachineConfig::unbounded());
        let ns = t0.elapsed().as_nanos() as f64;
        let counts = out.as_ref().map_or(Vec::new(), |o| {
            vec![
                ("fired", o.stats.fired as f64),
                ("max_pending_slots", o.stats.max_pending_slots as f64),
                ("tags_created", o.stats.tags_created as f64),
            ]
        });
        self.tr.close(sp, &counts);
        let Some(out) = self.tally.attempt("simulator", out) else {
            return Ok(None);
        };
        samples.sim_ns.push(ns);
        check(
            (self.prog, self.prep),
            "simulator",
            &out.memory,
            out.stats.fired,
            out.stats.fired,
        )?;
        Ok(Some((out.stats.fired, out.stats.makespan)))
    }

    /// `run_threaded_compiled_pooled_with` on the pool; returns the
    /// counts that must repeat and, if it succeeded, the run's time.
    fn threaded(
        &mut self,
        cg: &CompiledGraph,
        want_fired: u64,
    ) -> Result<(Vec<u64>, Option<f64>), String> {
        let sp = self.tr.open("machine.parallel", self.id);
        let t0 = Instant::now();
        let (out, _, _) = run_threaded_compiled_pooled_with(
            cg,
            &self.prep.layout,
            self.pool,
            &ParConfig::default(),
        );
        let ns = t0.elapsed().as_nanos() as f64;
        let counts = out.as_ref().map_or(Vec::new(), par_counts);
        self.tr.close(sp, &counts);
        let Some(out) = self.tally.attempt("threaded", out) else {
            return Ok((vec![u64::MAX], None));
        };
        check(
            (self.prog, self.prep),
            "threaded executor",
            &out.memory,
            out.fired,
            want_fired,
        )?;
        Ok((vec![out.fired, out.metrics.tokens_processed], Some(ns)))
    }

    /// One `serve` session: `requests` submissions with at most
    /// `inflight` outstanding, each new submit after a collect. `lat`
    /// receives each request's submit-to-collect time.
    fn serve(
        &mut self,
        cg: &CompiledGraph,
        want_fired: u64,
        requests: usize,
        inflight: usize,
        lat: Option<&mut Vec<f64>>,
    ) -> Result<Vec<u64>, String> {
        let session = self.tr.open("machine.serve", self.id);
        let (tr, tally, id, layout) = (&mut *self.tr, &mut *self.tally, self.id, &self.prep.layout);
        let here = (self.prog, self.prep);
        let mut lat = lat;
        let mut outcomes: Vec<Result<ParOutcome, String>> = Vec::with_capacity(requests);
        let (_, stats) = serve(cg, self.pool, inflight, &ParConfig::default(), |h| {
            let closure = tr.open("machine.serve.closure", id);
            let mut sent: Vec<Instant> = Vec::with_capacity(requests);
            let submit = |tr: &mut Tracer, sent: &mut Vec<Instant>| {
                let sp = tr.open("machine.serve.submit", id);
                sent.push(Instant::now());
                h.submit(layout);
                tr.close(sp, &[("req", (sent.len() - 1) as f64)]);
            };
            for _ in 0..inflight.min(requests) {
                submit(tr, &mut sent);
            }
            for _ in 0..requests {
                let sp = tr.open("machine.serve.collect", id);
                let (req, r) = h.collect();
                let ns = sent[req as usize].elapsed().as_nanos() as f64;
                tr.close(sp, &[("req", req as f64)]);
                if let Some(l) = lat.as_deref_mut() {
                    l.push(ns);
                }
                outcomes.push(r.map_err(|e| e.to_string()));
                if sent.len() < requests {
                    submit(tr, &mut sent);
                }
            }
            tr.close(closure, &[]);
        });
        let sum = |f: fn(&cf2df_machine::WorkerStats) -> u64| {
            stats.workers.iter().map(f).sum::<u64>() as f64
        };
        tr.close(
            session,
            &[
                ("requests", stats.requests as f64),
                ("tokens", stats.tokens_processed as f64),
                ("max_pending_slots", stats.max_pending_slots as f64),
                ("peak_inflight", stats.peak_inflight as f64),
                ("parks", sum(|w| w.parks)),
                ("steals", sum(|w| w.steals)),
            ],
        );
        for out in outcomes {
            if let Some(out) = tally.attempt("serve request", out) {
                check(here, "serve", &out.memory, out.fired, want_fired)?;
            }
        }
        Ok(vec![stats.tokens_processed, stats.completed_ok])
    }
}

/// Counts a threaded run reports on its span.
fn par_counts(o: &ParOutcome) -> Vec<(&'static str, f64)> {
    let m = &o.metrics;
    let sum =
        |f: fn(&cf2df_machine::WorkerStats) -> u64| m.workers.iter().map(f).sum::<u64>() as f64;
    let busiest = m.workers.iter().map(|w| w.processed).max().unwrap_or(0);
    vec![
        ("tokens", m.tokens_processed as f64),
        ("fast_path_fires", m.fast_path_fires as f64),
        ("merged", m.merged as f64),
        ("max_pending_slots", m.max_pending_slots as f64),
        ("steals", sum(|w| w.steals)),
        ("parks", sum(|w| w.parks)),
        ("unparks", sum(|w| w.unparks)),
        ("injector_hits", sum(|w| w.injector_hits)),
        ("batches", sum(|w| w.batches)),
        (
            "busiest_share",
            busiest as f64 / m.tokens_processed.max(1) as f64,
        ),
    ]
}
