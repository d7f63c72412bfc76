//! The benchmark-regression gate binary.
//!
//! ```sh
//! # Run the kernels and write a schema-versioned report:
//! cargo run --release -p ir-bench --bin bench -- report --scale 0.0625 --out BENCH_report.json
//!
//! # Gate a report against a checked-in baseline (exit 1 on regression):
//! cargo run --release -p ir-bench --bin bench -- compare results/bench_baseline.json BENCH_report.json
//!
//! # Drive every policy × layout combination under seeded faults:
//! cargo run --release -p ir-bench --bin bench -- chaos --seed 193
//!
//! # Sweep concurrent sessions over single-mutex vs. sharded pools:
//! cargo run --release -p ir-bench --bin bench -- throughput --out BENCH_throughput.json
//!
//! # Sweep storage backends (simulator vs. page file vs. scheduled I/O):
//! cargo run --release -p ir-bench --bin bench -- storage --out BENCH_storage.json
//! ```
//!
//! Disk-read counts are deterministic and compared exactly; wall times
//! get a ±15 % tolerance by default (`--tolerance 0.15`). The `chaos`
//! report contains no wall-clock numbers: two runs with the same seed
//! and scale print byte-identical output (CI diffs them).

use ir_bench::report::{collect, compare, from_json, to_json};
use std::process::ExitCode;

const USAGE: &str = "usage: bench report [--scale SIGMA] [--out FILE]
       bench compare BASELINE CURRENT [--tolerance FRACTION]
       bench chaos [--seed N] [--scale SIGMA]
       bench throughput [--scale SIGMA] [--sessions N,N,..] [--shards P] [--repeats R] [--out FILE] [--gate-scaling]
       bench storage [--scale SIGMA] [--depths N,N,..] [--seek-us N] [--transfer-us N] [--out FILE] [--gate-overlap]
       bench adaptive [--scale SIGMA] [--out FILE]
       bench codec [--scale SIGMA] [--repeats R] [--out FILE]";

/// Writes a schema-versioned JSON artifact to `out` and mirrors it
/// into `results/` (when `out` is not already there), so both the
/// checked-in root copy and the results tree stay current from one
/// invocation.
fn write_json_mirrored(out: &str, json: &str) -> Result<(), String> {
    let body = format!("{json}\n");
    std::fs::write(out, &body).map_err(|e| format!("writing {out}: {e}"))?;
    let path = std::path::Path::new(out);
    let in_results = path
        .parent()
        .is_some_and(|p| p.file_name().is_some_and(|n| n == "results"));
    if !in_results {
        if let Some(name) = path.file_name() {
            let mirror = std::path::Path::new("results").join(name);
            if std::fs::create_dir_all("results").is_ok() {
                std::fs::write(&mirror, &body)
                    .map_err(|e| format!("writing {}: {e}", mirror.display()))?;
            }
        }
    }
    Ok(())
}

fn run_report(args: &[String]) -> Result<(), String> {
    let mut scale = 1.0 / 16.0;
    let mut out = "BENCH_report.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|v| *v > 0.0 && *v <= 1.0)
                    .ok_or("--scale needs a number in (0, 1]")?;
            }
            "--out" => {
                i += 1;
                out = args.get(i).ok_or("--out needs a file path")?.clone();
            }
            other => return Err(format!("unknown report flag {other:?}")),
        }
        i += 1;
    }
    println!("running benchmark kernels at scale {scale} ...");
    let report = collect(scale).map_err(|e| e.to_string())?;
    println!(
        "fig3: {} topics, full {} reads, DF {} reads (mean savings {:.1} %)",
        report.fig3.topics,
        report.fig3.full_reads,
        report.fig3.df_reads,
        report.fig3.mean_savings_pct
    );
    println!("fig5-8: {} sweep cells", report.figures.len());
    println!(
        "DF eval latency over {} queries: p50 {} µs, p99 {} µs, {:.0} queries/s",
        report.latency.queries,
        report.latency.p50_us,
        report.latency.p99_us,
        report.latency.throughput_qps
    );
    for m in &report.micro {
        println!(
            "  {}: {} ops in {} µs ({:.0} ops/s)",
            m.name, m.ops, m.total_us, m.ops_per_sec
        );
    }
    println!(
        "server: {} sessions, {} queries in {} µs ({:.0} queries/s)",
        report.server.sessions,
        report.server.queries,
        report.server.wall_us,
        report.server.queries_per_sec
    );
    println!(
        "adaptive: {} queries, {} reads, {} leader switches, {} shadow experts",
        report.adaptive.queries,
        report.adaptive.total_reads,
        report.adaptive.switches,
        report.adaptive.shadow_hits.len()
    );
    for row in &report.codec.rows {
        println!(
            "codec {}: {:.4} B/entry over {} postings, decode {:.5} µs/entry \
             ({} entries in {} µs)",
            row.codec,
            row.bytes_per_entry(),
            row.n_postings,
            row.decode_us_per_entry(),
            row.decoded_entries,
            row.decode_ns / 1_000
        );
    }
    std::fs::write(&out, to_json(&report) + "\n").map_err(|e| format!("writing {out}: {e}"))?;
    println!("report written to {out}");
    Ok(())
}

fn run_compare(args: &[String]) -> Result<(), String> {
    let mut tolerance = 0.15;
    let mut paths: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tolerance" => {
                i += 1;
                tolerance = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|v| *v >= 0.0)
                    .ok_or("--tolerance needs a non-negative fraction")?;
            }
            _ => paths.push(&args[i]),
        }
        i += 1;
    }
    let (baseline_path, current_path) = match paths.as_slice() {
        [b, c] => (b.as_str(), c.as_str()),
        _ => return Err(format!("compare needs exactly two report files\n{USAGE}")),
    };
    let load = |path: &str| -> Result<_, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        from_json(&text).map_err(|e| format!("parsing {path}: {e}"))
    };
    let baseline = load(baseline_path)?;
    let current = load(current_path)?;
    let problems = compare(&baseline, &current, tolerance);
    if problems.is_empty() {
        println!(
            "gate passed: {} figure cells and fig3 read counts match {} exactly, \
             wall times within ±{:.0} %",
            current.figures.len(),
            baseline_path,
            tolerance * 100.0
        );
        Ok(())
    } else {
        for p in &problems {
            eprintln!("REGRESSION: {p}");
        }
        Err(format!(
            "{} regression(s) against {baseline_path}; if intentional, regenerate the baseline \
             (see EXPERIMENTS.md)",
            problems.len()
        ))
    }
}

fn run_chaos(args: &[String]) -> Result<(), String> {
    let mut seed = 193u64;
    let mut scale = 1.0 / 16.0;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed needs an unsigned integer")?;
            }
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|v| *v > 0.0 && *v <= 1.0)
                    .ok_or("--scale needs a number in (0, 1]")?;
            }
            other => return Err(format!("unknown chaos flag {other:?}")),
        }
        i += 1;
    }
    print!("{}", ir_bench::chaos::run(seed, scale)?);
    Ok(())
}

fn run_throughput(args: &[String]) -> Result<(), String> {
    let mut scale = 1.0 / 16.0;
    let mut sessions = vec![1usize, 2, 4, 8];
    let mut shards = 4usize;
    let mut repeats = 3usize;
    let mut out = "BENCH_throughput.json".to_string();
    let mut gate_scaling = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|v| *v > 0.0 && *v <= 1.0)
                    .ok_or("--scale needs a number in (0, 1]")?;
            }
            "--sessions" => {
                i += 1;
                sessions = args
                    .get(i)
                    .map(|s| s.split(',').map(|n| n.parse::<usize>()).collect())
                    .transpose()
                    .ok()
                    .flatten()
                    .filter(|v: &Vec<usize>| !v.is_empty() && v.iter().all(|n| *n > 0))
                    .ok_or("--sessions needs a comma-separated list of positive counts")?;
            }
            "--shards" => {
                i += 1;
                shards = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|v| *v > 0)
                    .ok_or("--shards needs a positive integer")?;
            }
            "--repeats" => {
                i += 1;
                repeats = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|v| *v > 0)
                    .ok_or("--repeats needs a positive integer")?;
            }
            "--out" => {
                i += 1;
                out = args.get(i).ok_or("--out needs a file path")?.clone();
            }
            "--gate-scaling" => gate_scaling = true,
            other => return Err(format!("unknown throughput flag {other:?}")),
        }
        i += 1;
    }
    let (text, report) = ir_bench::throughput::run(scale, &sessions, shards, repeats)?;
    // stdout carries only the deterministic block (CI diffs two runs);
    // everything timed lives in the JSON artifact.
    print!("{text}");
    write_json_mirrored(&out, &ir_bench::throughput::to_json(&report))?;
    if gate_scaling {
        // Gate text carries wall-clock ratios → stderr only, so the
        // stdout determinism contract survives a gated run.
        match ir_bench::throughput::gate_scaling(&report, 4) {
            Ok(summary) => eprint!("scaling gate passed:\n{summary}"),
            Err(problems) => {
                for p in &problems {
                    eprintln!("SCALING REGRESSION: {p}");
                }
                return Err(format!(
                    "{} scaling violation(s): the sharded pool must beat the shared \
                     mutex at sessions >= 4 (ROADMAP Open item 1)",
                    problems.len()
                ));
            }
        }
    }
    Ok(())
}

fn run_storage(args: &[String]) -> Result<(), String> {
    let mut scale = 1.0 / 16.0;
    let mut depths = vec![1usize, 4, 16];
    let mut seek_us = 200u64;
    let mut transfer_us = 50u64;
    let mut out = "BENCH_storage.json".to_string();
    let mut gate_overlap = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|v| *v > 0.0 && *v <= 1.0)
                    .ok_or("--scale needs a number in (0, 1]")?;
            }
            "--depths" => {
                i += 1;
                depths = args
                    .get(i)
                    .map(|s| s.split(',').map(|n| n.parse::<usize>()).collect())
                    .transpose()
                    .ok()
                    .flatten()
                    .filter(|v: &Vec<usize>| !v.is_empty() && v.iter().all(|n| *n > 0))
                    .ok_or("--depths needs a comma-separated list of positive queue depths")?;
            }
            "--seek-us" => {
                i += 1;
                seek_us = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seek-us needs an unsigned integer")?;
            }
            "--transfer-us" => {
                i += 1;
                transfer_us = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--transfer-us needs an unsigned integer")?;
            }
            "--out" => {
                i += 1;
                out = args.get(i).ok_or("--out needs a file path")?.clone();
            }
            "--gate-overlap" => gate_overlap = true,
            other => return Err(format!("unknown storage flag {other:?}")),
        }
        i += 1;
    }
    let (text, report) = ir_bench::storage::run(scale, &depths, seek_us, transfer_us)?;
    // Same contract as `throughput`: deterministic block on stdout
    // (CI diffs two runs), wall-clock timings only in the JSON.
    print!("{text}");
    write_json_mirrored(&out, &ir_bench::storage::to_json(&report))?;
    if gate_overlap {
        // CI contract (ISSUE 9): at qd >= 4 the split-phase loop must
        // overlap reads and wait no longer on the virtual clock.
        match ir_bench::storage::gate_overlap(&report) {
            Ok(summary) => eprint!("overlap gate passed:\n{summary}"),
            Err(problems) => {
                for p in &problems {
                    eprintln!("overlap gate: {p}");
                }
                return Err(format!(
                    "{} overlap violation(s): split-phase submit/complete must \
                     shadow I/O waits at queue depth >= 4",
                    problems.len()
                ));
            }
        }
    }
    // The wall-clock comparison is machine-dependent → stderr only.
    if let Some(serial) = report.rows.iter().find(|r| r.queue_depth == 1) {
        for deep in report.rows.iter().filter(|r| r.queue_depth >= 4) {
            eprintln!(
                "wall clock: {} {} µs vs qd1 {} µs ({:.0} %)",
                deep.backend,
                deep.wall_us,
                serial.wall_us,
                deep.wall_us as f64 * 100.0 / serial.wall_us.max(1) as f64
            );
        }
    }
    Ok(())
}

fn run_adaptive(args: &[String]) -> Result<(), String> {
    let mut scale = 1.0 / 16.0;
    let mut out = "BENCH_adaptive.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|v| *v > 0.0 && *v <= 1.0)
                    .ok_or("--scale needs a number in (0, 1]")?;
            }
            "--out" => {
                i += 1;
                out = args.get(i).ok_or("--out needs a file path")?.clone();
            }
            other => return Err(format!("unknown adaptive flag {other:?}")),
        }
        i += 1;
    }
    let (text, report) = ir_bench::adaptive::run(scale)?;
    // Reads, switch counts and shadow hits are all deterministic and
    // no wall-clock number exists in this report, so the whole block
    // goes to stdout — CI diffs two runs.
    print!("{text}");
    write_json_mirrored(&out, &ir_bench::adaptive::to_json(&report))?;
    Ok(())
}

fn run_codec(args: &[String]) -> Result<(), String> {
    // The checked-in artifact is the full-scale sweep (ISSUE 10), so
    // full scale is the default — CI regenerates and diffs it.
    let mut scale = 1.0;
    let mut repeats = 5usize;
    let mut out = "BENCH_codec.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|v| *v > 0.0 && *v <= 1.0)
                    .ok_or("--scale needs a number in (0, 1]")?;
            }
            "--repeats" => {
                i += 1;
                repeats = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|v| *v > 0)
                    .ok_or("--repeats needs a positive integer")?;
            }
            "--out" => {
                i += 1;
                out = args.get(i).ok_or("--out needs a file path")?.clone();
            }
            other => return Err(format!("unknown codec flag {other:?}")),
        }
        i += 1;
    }
    let (text, report, timings) = ir_bench::codec::run(scale, repeats)?;
    // Same contract as `throughput`/`storage`: only deterministic
    // numbers on stdout (CI diffs two runs and the JSON artifact);
    // decode wall time is machine-dependent and goes to stderr.
    print!("{text}");
    write_json_mirrored(&out, &ir_bench::codec::to_json(&report))?;
    for t in &timings {
        eprintln!(
            "decode {}: {:.5} µs/entry (best of {repeats}, {} entries/pass)",
            t.codec, t.best_us_per_entry, t.entries
        );
    }
    let summary = ir_bench::codec::gate(&report).map_err(|p| format!("codec gate: {p}"))?;
    eprint!("codec gate passed:\n{summary}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("report") => run_report(&args[1..]),
        Some("compare") => run_compare(&args[1..]),
        Some("chaos") => run_chaos(&args[1..]),
        Some("throughput") => run_throughput(&args[1..]),
        Some("storage") => run_storage(&args[1..]),
        Some("adaptive") => run_adaptive(&args[1..]),
        Some("codec") => run_codec(&args[1..]),
        Some("--help") | Some("-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
