//! perfbench: one workload of the source-to-result benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--spans <file>] [--rev <git revision>] [--rustc <version>]
//! ```
//!
//! A run alternates set-ups and measured rounds for `--seconds`. Each
//! round repeats the same calls on the same inputs, so every count must
//! repeat exactly; each result is checked against the `vonneumann`
//! oracle. An oracle mismatch or a count that does not repeat exits with
//! code 1 before any result is printed. The last line of standard output
//! is the result: with `--trace 0` the end-to-end metrics, with
//! `--trace 1` the per-layer metrics of the recorded spans. End-to-end
//! timings are scaled to a reference host's speed by a probe timed
//! before every round (see `probe`); per-layer timings are raw.

mod alloc;
mod probe;
mod stats;
mod trace;
mod workload;

use cf2df_bench::json::Obj;
use stats::{geomean, median, quantile};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Layers, Tracer};
use workload::{Bench, Kind, RoundCounts, Samples, Tally};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups whose state the following rounds use, spread evenly over the
/// measured window.
const SETUPS: usize = 5;
/// Between those, an extra set-up is timed whenever set-ups have taken
/// less than this share of the run, so cheap set-ups get many samples.
const SETUP_SHARE: f64 = 0.1;
/// Rounds a run makes at least, however long they take.
const MIN_ROUNDS: usize = 6;
/// A round's host speed is the median probe of the rounds this many
/// before and after it, and its own.
const PROBE_HALF_WINDOW: usize = 2;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
    rev: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut spans, mut rev, mut rustc) = (None, "unknown".to_owned(), "unknown".to_owned());
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::ALL
                        .into_iter()
                        .find(|k| k.name() == value)
                        .ok_or_else(|| bad("workload"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad("seconds"))?),
            "--trace" => {
                trace = Some(
                    value
                        .parse::<u8>()
                        .ok()
                        .filter(|t| *t <= 1)
                        .ok_or_else(|| bad("trace"))?
                        == 1,
                )
            }
            "--spans" => spans = Some(value),
            "--rev" => rev = value,
            "--rustc" => rustc = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
        rev,
        rustc,
    })
}

/// What one run gathered.
struct Gathered {
    tally: Tally,
    /// Samples and set-up times at the reference host's speed (see
    /// `host_scales`).
    samples: Samples,
    setup_ns: Vec<f64>,
    /// Peak live heap of each state-replacing set-up and of each round, in
    /// bytes, not counting the run's own records (samples, spans), which
    /// grow with the number of rounds.
    setup_heap: Vec<f64>,
    round_heap: Vec<f64>,
    /// Round walls, untraced and traced.
    round_ns: [Vec<f64>; 2],
    /// Host-speed probe times, one before each round, and each round's
    /// scale from them.
    probe_ns: Vec<f64>,
    scales: Vec<f64>,
    first: RoundCounts,
    ops: usize,
    cfg_nodes: usize,
    tracer: Tracer,
    width: usize,
    pool_width: usize,
}

fn gather(args: &Args) -> Result<Gathered, String> {
    let programs = workload::programs(args.kind, args.seed);
    let width = std::thread::available_parallelism().map_or(1, |n| n.get());
    let bench = Bench::new(args.kind, &programs, width);
    let mut tracer = Tracer::new(args.trace);
    let mut tally = Tally::default();
    let mut rounds: Vec<Samples> = Vec::new();
    // Per set-up, the rounds made before it.
    let mut setup_round = Vec::new();
    let (mut setup_ns, mut round_ns) = (Vec::new(), [Vec::new(), Vec::new()]);
    let (mut setup_heap, mut round_heap) = (Vec::new(), Vec::new());
    // Heap the current state holds.
    let mut state_bytes = 0.0;
    let mut probe_ns = Vec::new();
    let mut first: Option<RoundCounts> = None;
    let mut first_setup: Option<Vec<u64>> = None;
    let mut state = None;
    let window = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed();
        let spaced = window.mul_f64(setup_heap.len() as f64 / SETUPS as f64);
        let spent = setup_ns.iter().sum::<f64>() / 1e9;
        let replace = state.is_none() || (setup_heap.len() < SETUPS && elapsed >= spaced);
        let extra = elapsed < window && spent < SETUP_SHARE * elapsed.as_secs_f64();
        if replace || extra {
            if replace {
                // Drop the old state first so the peak heap holds one.
                drop(state.take());
            }
            tracer.set_on(args.trace);
            let base = alloc::reset_peak();
            let t0 = Instant::now();
            let st = bench.setup(&mut tracer, &mut tally);
            let ns = t0.elapsed().as_nanos() as f64;
            let heap = alloc::peak_bytes().saturating_sub(base) as f64;
            let held = alloc::live_bytes().saturating_sub(base) as f64;
            setup_ns.push(ns);
            setup_round.push(rounds.len());
            match &first_setup {
                None => first_setup = Some(st.signature.clone()),
                Some(sig) if *sig != st.signature => {
                    return Err("set-up counts differ between set-ups of one run".into())
                }
                Some(_) => {}
            }
            // An extra set-up is timed and dropped: rounds keep a warm
            // pool, as a server would.
            if replace {
                setup_heap.push(heap);
                state_bytes = held;
                state = Some(st);
            }
            continue;
        }
        if elapsed >= window && round_ns[0].len() + round_ns[1].len() >= MIN_ROUNDS {
            break;
        }
        // A traced run alternates traced and untraced rounds; the
        // difference between them is the tracing overhead.
        let traced = args.trace && (round_ns[0].len() + round_ns[1].len()) % 2 == 1;
        tracer.set_on(traced);
        probe_ns.push(probe::time());
        let st = state.as_ref().expect("set up above");
        let base = alloc::reset_peak();
        let t0 = Instant::now();
        let (rc, round) = bench.round(st, &mut tracer, &mut tally)?;
        let ns = t0.elapsed().as_nanos() as f64;
        let heap = state_bytes + alloc::peak_bytes().saturating_sub(base) as f64;
        round_ns[traced as usize].push(ns);
        round_heap.push(heap);
        rounds.push(round);
        match &first {
            None => first = Some(rc),
            Some(f) if *f != rc => {
                return Err("round counts differ between rounds of one run".into())
            }
            Some(_) => {}
        }
    }
    let st = state.expect("at least one set-up");
    let first = first
        .filter(|f| !f.fired.is_empty())
        .ok_or("no program produced a result")?;
    let scales = host_scales(&probe_ns);
    let mut samples = Samples::default();
    for (round, k) in rounds.into_iter().zip(&scales) {
        samples.extend(round.scaled(*k));
    }
    // A set-up takes the scale of the round after it.
    let at = |r: usize| scales[r.min(scales.len() - 1)];
    let setup_ns = setup_ns
        .iter()
        .zip(&setup_round)
        .map(|(ns, r)| ns * at(*r))
        .collect();
    Ok(Gathered {
        ops: st.progs.iter().flatten().map(|p| p.cg.len()).sum(),
        cfg_nodes: st.progs.iter().flatten().map(|p| p.cfg_nodes).sum(),
        tally,
        samples,
        setup_ns,
        setup_heap,
        round_heap,
        round_ns,
        probe_ns,
        scales,
        first,
        tracer,
        width,
        pool_width: bench.pool_width(),
    })
}

type Metrics = Vec<(String, f64, &'static str)>;

/// Per round: raw time × this is the time at the reference host's
/// speed. The host's speed can change within a run, so each round takes
/// the median probe of the rounds around it, not the run's.
fn host_scales(probe_ns: &[f64]) -> Vec<f64> {
    (0..probe_ns.len())
        .map(|r| {
            let lo = r.saturating_sub(PROBE_HALF_WINDOW);
            let hi = (r + PROBE_HALF_WINDOW + 1).min(probe_ns.len());
            probe::REF_NS / median(&probe_ns[lo..hi])
        })
        .collect()
}

fn end_to_end(g: &Gathered) -> Metrics {
    let (lat, sim) = (&g.samples.latency_ns, &g.samples.sim_ns);
    let total = |xs: &[u64]| xs.iter().sum::<u64>() as f64;
    // The typical set-up's or round's peak, whichever is higher: a single
    // maximum would follow the threaded executor's scheduling.
    let heap = median(&g.setup_heap).max(median(&g.round_heap));
    vec![
        ("setup_s".into(), median(&g.setup_ns) / 1e9, "s"),
        ("latency_ms".into(), median(lat) / 1e6, "ms"),
        ("latency_ms_p90".into(), quantile(lat, 0.9) / 1e6, "ms"),
        ("sim_ms".into(), median(sim) / 1e6, "ms"),
        (
            "throughput_per_s".into(),
            median(&g.samples.throughput),
            "1/s",
        ),
        (
            "graph_ops_per_node".into(),
            g.ops as f64 / g.cfg_nodes as f64,
            "ops/node",
        ),
        ("ideal_speedup".into(), geomean(&g.first.speedups), "x"),
        (
            "fired_per_statement".into(),
            total(&g.first.fired) / total(&g.first.statements),
            "firings/stmt",
        ),
        ("peak_heap_mb".into(), heap / 1e6, "MB"),
    ]
}

/// The passes `translate` runs under the CLI's default options.
const PASSES: [&str; 7] = [
    "validate",
    "lines",
    "reducibility",
    "loop-control",
    "translate-full",
    "certify",
    "fuse",
];

fn per_layer(g: &Gathered) -> Metrics {
    let l: Layers = g.tracer.layers();
    let p50 = |name: &str, unit: f64| median(&l.group(name).incl_ns) / unit;
    let mean = |name: &str, unit: f64| {
        let xs = &l.group(name).incl_ns;
        xs.iter().sum::<f64>() / xs.len() as f64 / unit
    };
    let total = |name: &str| l.group(name).incl_ns.iter().sum::<f64>();
    let mut m: Metrics = vec![
        ("lang.parse_us".into(), p50("lang.parse", 1e3), "us"),
        (
            "lang.cfg_nodes".into(),
            l.count_mean("lang.parse", "cfg_nodes"),
            "nodes",
        ),
        ("core.translate_ms".into(), p50("core.translate", 1e6), "ms"),
    ];
    for pass in PASSES {
        let name = format!("core.pass.{pass}");
        m.push((format!("{name}_ms"), mean(&name, 1e6), "ms"));
    }
    let split = l.count_sum("core.pass.reducibility", "nodes_out")
        / l.count_sum("core.pass.reducibility", "nodes_in");
    let sim_ns = total("machine.exec");
    let par_ns = total("machine.parallel");
    let serve = "machine.serve";
    let requests = l.count_sum(serve, "requests");
    m.extend([
        (
            "core.analyses_computed".into(),
            l.count_mean("core.translate", "analyses_computed"),
            "count",
        ),
        (
            "core.cache_hits".into(),
            l.count_mean("core.translate", "cache_hits"),
            "count",
        ),
        ("core.split_growth".into(), split, "x"),
        (
            "dfg.ops".into(),
            l.count_mean("core.translate", "ops"),
            "ops",
        ),
        (
            "dfg.ops_fused".into(),
            l.count_mean("core.translate", "ops_fused"),
            "ops",
        ),
        (
            "dfg.macros".into(),
            l.count_mean("core.translate", "macros"),
            "ops",
        ),
        (
            "machine.compile_us".into(),
            p50("machine.compile", 1e3),
            "us",
        ),
        (
            "machine.compiled_bytes".into(),
            l.count_mean("machine.compile", "bytes"),
            "bytes",
        ),
        (
            "machine.exec.ns_per_firing".into(),
            sim_ns / l.count_sum("machine.exec", "fired"),
            "ns",
        ),
        (
            "machine.exec.max_pending_slots".into(),
            l.count_max("machine.exec", "max_pending_slots"),
            "slots",
        ),
        (
            "machine.exec.tags_created".into(),
            l.count_mean("machine.exec", "tags_created"),
            "tags",
        ),
        (
            "machine.parallel.ns_per_token".into(),
            par_ns / l.count_sum("machine.parallel", "tokens"),
            "ns",
        ),
        (
            "machine.parallel.fast_path_fires".into(),
            l.count_mean("machine.parallel", "fast_path_fires"),
            "count",
        ),
        (
            "machine.parallel.merged".into(),
            l.count_mean("machine.parallel", "merged"),
            "count",
        ),
        (
            "machine.parallel.max_pending_slots".into(),
            l.count_max("machine.parallel", "max_pending_slots"),
            "slots",
        ),
        (
            "machine.parallel.speedup_vs_sim".into(),
            sim_ns / par_ns,
            "x",
        ),
    ]);
    for key in ["steals", "parks", "unparks", "injector_hits", "batches"] {
        m.push((
            format!("machine.scheduler.{key}"),
            l.count_mean("machine.parallel", key),
            "count",
        ));
    }
    let busiest = l.count_mean("machine.parallel", "busiest_share");
    m.push(("machine.scheduler.busiest_share".into(), busiest, "share"));
    m.extend([
        (
            "machine.serve.session_us".into(),
            median(&l.group(serve).self_ns) / 1e3,
            "us",
        ),
        (
            "machine.serve.submit_wait_us".into(),
            mean("machine.serve.submit", 1e3),
            "us",
        ),
        (
            "machine.serve.tokens_per_request".into(),
            l.count_sum(serve, "tokens") / requests,
            "tokens",
        ),
        (
            "machine.serve.max_pending_slots".into(),
            l.count_max(serve, "max_pending_slots"),
            "slots",
        ),
        (
            "machine.serve.peak_inflight".into(),
            l.count_max(serve, "peak_inflight"),
            "requests",
        ),
        (
            "machine.serve.parks".into(),
            l.count_sum(serve, "parks") / requests,
            "1/request",
        ),
        (
            "machine.serve.steals".into(),
            l.count_sum(serve, "steals") / requests,
            "1/request",
        ),
        (
            "machine.vonneumann.interp_us".into(),
            p50("machine.vonneumann", 1e3),
            "us",
        ),
    ]);
    let overhead = median(&g.round_ns[1]) / median(&g.round_ns[0]) - 1.0;
    m.push(("trace.overhead_pct".into(), overhead * 100.0, "%"));
    m
}

fn metrics_json(m: &Metrics) -> String {
    let mut o = Obj::new();
    for (name, v, unit) in m {
        o.raw(
            name,
            &Obj::new().float("value", *v).str("unit", unit).finish(),
        );
    }
    o.finish()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let g = match gather(&args) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.kind.name());
            return ExitCode::from(1);
        }
    };
    let metrics = if args.trace {
        per_layer(&g)
    } else {
        end_to_end(&g)
    };
    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, g.tracer.to_jsonl()) {
            eprintln!("perfbench: writing {path}: {e}");
            return ExitCode::from(1);
        }
    }
    let lat = &g.samples.latency_ns;
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut failures = Obj::new();
    for (what, n) in &g.tally.failures {
        failures.num(what, *n);
    }
    let mut run = Obj::new();
    run.str("workload", args.kind.name())
        .num("seed", args.seed)
        .float("seconds", args.seconds)
        .bool("trace", args.trace)
        .num("available_parallelism", g.width as u64)
        .num("pool_width", g.pool_width as u64)
        .num("generator_threads", 1u8)
        .str("git_rev", &args.rev)
        .str("rustc", &args.rustc)
        .str("profile", profile)
        .num("setups", g.setup_ns.len() as u64)
        .num("rounds", (g.round_ns[0].len() + g.round_ns[1].len()) as u64)
        .num("latency_samples", lat.len() as u64)
        .float("probe_ms", median(&g.probe_ns) / 1e6)
        .float("host_scale", median(&g.scales))
        .float("latency_ms_p99", quantile(lat, 0.99) / 1e6)
        .float(
            "error_rate",
            g.tally.failed as f64 / g.tally.attempted.max(1) as f64,
        )
        .raw("failures", &failures.finish())
        .bool("counts_repeat", true);
    println!("{}", Obj::new().raw("run", &run.finish()).finish());
    let mut result = Obj::new();
    result
        .bool("correct", true)
        .num("attempted", g.tally.attempted)
        .num("failed", g.tally.failed)
        .raw("metrics", &metrics_json(&metrics));
    println!("{}", result.finish());
    ExitCode::SUCCESS
}
