//! End-to-end tests of the `cf2df` command-line driver.

use std::process::Command;

fn cf2df(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_cf2df"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn cfg_prints_nodes_and_dot() {
    let (stdout, _, ok) = cf2df(&["cfg", "running_example"]);
    assert!(ok);
    assert!(stdout.contains("y := (x + 1)"));
    let (dot, _, ok) = cf2df(&["cfg", "running_example", "--dot"]);
    assert!(ok);
    assert!(dot.starts_with("digraph"));
    assert!(dot.contains("style=dashed"), "conventional edge");
}

#[test]
fn run_prints_results_and_stats() {
    let (stdout, _, ok) = cf2df(&["run", "gcd"]);
    assert!(ok);
    assert!(stdout.contains("a = 21"), "{stdout}");
    assert!(stdout.contains("makespan"));
}

#[test]
fn run_with_trace_shows_timeline() {
    let (stdout, _, ok) = cf2df(&["run", "fib", "--schema1", "--trace"]);
    assert!(ok);
    assert!(stdout.contains("t=0"));
    assert!(stdout.contains("load"));
}

#[test]
fn compare_reports_speedups_and_checks_memory() {
    let (stdout, _, ok) = cf2df(&["compare", "independent"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("sequential"));
    assert!(stdout.contains("schema2"));
    assert!(stdout.contains("full"));
}

#[test]
fn emit_and_run_graph_round_trip() {
    let dir = std::env::temp_dir().join("cf2df_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fib.dfg");
    let path_s = path.to_str().unwrap();
    let (_, stderr, ok) = cf2df(&["translate", "fib", "--optimized", "--emit", path_s]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("wrote"));
    let (stdout, _, ok) = cf2df(&["run-graph", path_s]);
    assert!(ok);
    assert!(stdout.contains("b = 987"), "fib(16): {stdout}");
}

#[test]
fn machine_flags_are_honoured() {
    let (fast, _, _) = cf2df(&["run", "independent", "--mem-latency", "1"]);
    let (slow, _, _) = cf2df(&["run", "independent", "--mem-latency", "50"]);
    let span = |s: &str| -> u64 {
        s.split("makespan=")
            .nth(1)
            .and_then(|r| r.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .unwrap()
    };
    assert!(span(&slow) > span(&fast));
    let (p1, _, _) = cf2df(&["run", "independent", "--processors", "1"]);
    assert!(span(&p1) >= span(&fast));
}

#[test]
fn broken_graph_reports_collision() {
    let (_, stderr, ok) = cf2df(&[
        "run",
        "running_example",
        "--no-loop-control",
        "--mem-latency",
        "10",
    ]);
    // The balanced running example completes even without loop control;
    // but stdin-supplied skewed loops must fault. Use a skewed program via
    // a temp file.
    let _ = (stderr, ok);
    let dir = std::env::temp_dir().join("cf2df_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("skewed.imp");
    std::fs::write(
        &path,
        "l:\n y := y + 1;\n y := y + 3;\n y := y + 5;\n x := x + 1;\n if x < 8 then { goto l; } else { goto end; }\n",
    )
    .unwrap();
    let (_, stderr, ok) = cf2df(&[
        "run",
        path.to_str().unwrap(),
        "--no-loop-control",
        "--mem-latency",
        "10",
    ]);
    assert!(!ok);
    assert!(stderr.contains("token collision"), "{stderr}");
}

#[test]
fn parse_errors_are_reported_with_lines() {
    let dir = std::env::temp_dir().join("cf2df_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.imp");
    std::fs::write(&path, "x := 1;\ny := ;\n").unwrap();
    let (_, stderr, ok) = cf2df(&["cfg", path.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("line 2"), "{stderr}");
}

#[test]
fn bench_writes_valid_artifacts_and_check_bench_verifies_them() {
    let dir = std::env::temp_dir().join("cf2df_cli_bench_test");
    std::fs::create_dir_all(&dir).unwrap();
    let dir_s = dir.to_str().unwrap();
    let (_, stderr, ok) = cf2df(&["bench", "--quick", "--out-dir", dir_s]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("BENCH_pipeline.json"), "{stderr}");
    assert!(stderr.contains("BENCH_executor.json"), "{stderr}");

    let pipeline = dir.join("BENCH_pipeline.json");
    let executor = dir.join("BENCH_executor.json");
    let (stdout, stderr, ok) =
        cf2df(&["check-bench", pipeline.to_str().unwrap(), executor.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.matches(": ok").count() == 2, "{stdout}");

    // The executor artifact sweeps 1/2/4/8 workers with per-worker counters.
    let doc = std::fs::read_to_string(&executor).unwrap();
    for probe in ["\"workers\":1", "\"workers\":2", "\"workers\":4", "\"workers\":8", "\"steals\"", "\"parks\""] {
        assert!(doc.contains(probe), "missing {probe}");
    }

    // check-bench rejects a corrupted artifact.
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"artifact\":\"pipeline\",\"workloads\":[]}").unwrap();
    let (_, stderr, ok) = cf2df(&["check-bench", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("INVALID"), "{stderr}");
}

#[test]
fn check_bench_compare_gates_regressions() {
    let dir = std::env::temp_dir().join("cf2df_cli_compare_test");
    std::fs::create_dir_all(&dir).unwrap();
    let dir_s = dir.to_str().unwrap();
    let (_, stderr, ok) = cf2df(&["bench", "--quick", "--out-dir", dir_s]);
    assert!(ok, "{stderr}");
    let pipeline = dir.join("BENCH_pipeline.json");
    let pipeline_s = pipeline.to_str().unwrap();

    // An artifact compared against itself passes and reports deltas.
    let (stdout, stderr, ok) =
        cf2df(&["check-bench", pipeline_s, "--compare", pipeline_s]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("quantities compared"), "{stdout}");

    // Inflating deterministic counters in the new artifact fails the gate.
    let doc = std::fs::read_to_string(&pipeline).unwrap();
    let worse = dir.join("worse.json");
    std::fs::write(&worse, doc.replace("\"fired\":", "\"fired\":1")).unwrap();
    let (stdout, stderr, ok) = cf2df(&[
        "check-bench",
        worse.to_str().unwrap(),
        "--compare",
        pipeline_s,
    ]);
    assert!(!ok, "{stdout}");
    assert!(stderr.contains("REGRESSION"), "{stderr}");
    assert!(stdout.contains("REGRESSED"), "{stdout}");

    // Executor artifacts compare too (same artifact: no regression).
    let executor = dir.join("BENCH_executor.json");
    let executor_s = executor.to_str().unwrap();
    let (stdout, stderr, ok) = cf2df(&[
        "check-bench",
        executor_s,
        "--compare",
        executor_s,
        "--tolerance",
        "0.25",
    ]);
    assert!(ok, "{stdout} {stderr}");
    assert!(stdout.contains("wall_ns"), "{stdout}");

    // The compiled-graph wall ceiling: identical medians pass, a
    // prefix matching no workload fails loudly.
    let (stdout, stderr, ok) = cf2df(&[
        "check-bench",
        executor_s,
        "--compare",
        executor_s,
        "--require-wall-leq",
        "loop_nest",
    ]);
    assert!(ok, "{stdout} {stderr}");
    assert!(stdout.contains("wall-ceiling gate"), "{stdout}");
    let (stdout, stderr, ok) = cf2df(&[
        "check-bench",
        executor_s,
        "--compare",
        executor_s,
        "--require-wall-leq",
        "no_such_workload",
    ]);
    assert!(!ok, "{stdout}");
    assert!(stderr.contains("wall-ceiling gate"), "{stderr}");
}

#[test]
fn stats_prints_compiled_footprint() {
    let (stdout, stderr, ok) = cf2df(&["stats", "stencil", "--full"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("compiled footprint"), "{stdout}");
    for field in ["operator descriptors", "destination slots", "table bytes", "max hot arity"] {
        assert!(stdout.contains(field), "{stdout}");
    }
    assert!(stdout.contains("inline capacity"), "{stdout}");
}

#[test]
fn chaos_campaign_runs_clean_and_reports_faults() {
    // A tiny deterministic slice of the campaign: one program, both
    // benign and destructive profiles, two worker counts. Must exit 0
    // (all runs equivalent-or-typed-error) and actually inject faults.
    let (stdout, stderr, ok) = cf2df(&[
        "chaos",
        "--quick",
        "--seeds",
        "2",
        "--workers",
        "2,4",
        "--programs",
        "gcd,nested",
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    for profile in ["off", "perturb", "panics", "drops", "dups", "mixed"] {
        assert!(stdout.contains(profile), "missing {profile} row: {stdout}");
    }
    assert!(stdout.contains("runs clean"), "{stdout}");
    // Destructive profiles must have injected something across this
    // many runs; the table's injected column is summed per profile.
    let injected: u64 = stdout
        .lines()
        .filter(|l| {
            l.starts_with("panics") || l.starts_with("drops") || l.starts_with("dups")
        })
        .filter_map(|l| l.split_whitespace().last()?.parse::<u64>().ok())
        .sum();
    assert!(injected > 0, "no faults injected: {stdout}");
}

#[test]
fn istructure_flag_applies() {
    let (stdout, stderr, ok) = cf2df(&[
        "run",
        "stencil",
        "--optimized",
        "--memelim",
        "--istructure",
        "src,dst",
        "--mem-latency",
        "8",
    ]);
    assert!(ok, "{stderr}");
    // Array contents print from I-structure memory.
    assert!(stdout.contains("checksum = "), "{stdout}");
}

/// Malformed numeric flags are usage errors: exit code 2, the usage
/// text on stderr, and no panic — whether the value does not parse, is
/// negative, or is a zero worker count or admission window.
#[test]
fn malformed_numeric_flags_are_usage_errors() {
    let cases: &[&[&str]] = &[
        &["serve", "--inflight", "abc"],
        &["serve", "--requests", "-1"],
        &["serve", "--workers", "0", "--quick"],
        &["serve", "--inflight", "0", "--quick"],
        &["serve", "--workers", "four"],
        &["chaos", "--quick", "--seeds", "x"],
        &["chaos", "--quick", "--workers", "2,0"],
        &["chaos", "--quick", "--workers", "2,y"],
        &["chaos", "--quick", "--fuel", "-3"],
        &["chaos", "--quick", "--watchdog-ms", "1.5"],
        &["fuse-check", "--workers", "0"],
        &["fuse-check", "--workers", "many"],
        &["run", "gcd", "--processors", "abc"],
        &["run", "gcd", "--mem-latency", "-1"],
        &["run", "gcd", "--op-latency", "x"],
        &["validate", "corpus", "--seeds", "nope"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_cf2df"))
            .args(*args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("cf2df run-graph") && stderr.contains("cf2df serve"),
            "{args:?}: no usage message: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
