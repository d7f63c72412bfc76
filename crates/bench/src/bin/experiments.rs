//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation section.
//!
//! ```sh
//! cargo run --release -p ir-bench --bin experiments -- all
//! cargo run --release -p ir-bench --bin experiments -- fig5_6 table7
//! cargo run --release -p ir-bench --bin experiments -- all --scale 0.25
//! ```
//!
//! `--scale σ` picks the collection scale (paper geometry, documents
//! and page size shrink together; default 1/16). `--out DIR` sets the
//! CSV directory (default `results/`).

use ir_bench::exp::{
    ablation, aggregate, effectiveness, feedback_exp, fig3_table5, fig4, fig5_8, table1_2, table4,
    table7, ExpContext,
};
use ir_bench::output::OutputDir;
use ir_bench::setup::{pick_representatives, profile_queries, TestBed};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: experiments [EXPERIMENT ...] [--scale SIGMA] [--out DIR]
experiments: all table1_2 table4 fig3 fig4 fig5_6 fig7_8 table7 aggregate effectiveness ablation feedback multiuser ordering scaling";

const ALL: [&str; 9] = [
    "table1_2",
    "table4",
    "fig3",
    "fig4",
    "fig5_6",
    "fig7_8",
    "table7",
    "aggregate",
    "effectiveness",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0 / 16.0;
    let mut out_dir = "results".to_string();
    let mut picked: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(v) => v,
                    None => {
                        eprintln!("--scale needs a number in (0, 1]\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(v) => out_dir = v.clone(),
                    None => {
                        eprintln!("--out needs a directory\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            name => picked.push(name.to_string()),
        }
        i += 1;
    }
    if picked.is_empty() || picked.iter().any(|p| p == "all") {
        picked = ALL.iter().map(|s| s.to_string()).collect();
        picked
            .extend(["ablation", "feedback", "multiuser", "ordering", "scaling"].map(String::from));
    }
    for p in &picked {
        let known = ALL.contains(&p.as_str())
            || ["ablation", "feedback", "multiuser", "ordering", "scaling"].contains(&p.as_str());
        if !known {
            eprintln!("unknown experiment {p:?}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }

    if !(scale > 0.0 && scale <= 1.0) {
        eprintln!("--scale must be in (0, 1], got {scale}");
        return ExitCode::FAILURE;
    }
    let started = Instant::now();
    println!("building testbed at scale {scale} (paper geometry) ...");
    let bed = match TestBed::at_scale(scale) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("testbed construction failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "  {} docs, {} terms, {} postings, {} pages (PageSize {}), built in {:.1?}",
        bed.index.n_docs(),
        bed.index.n_terms(),
        bed.index.total_postings(),
        bed.index.total_pages(),
        bed.index.params().page_size,
        started.elapsed()
    );
    let out = match OutputDir::new(&out_dir) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cannot create output dir {out_dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "profiling the {} topic queries (DF vs Full, cold) ...",
        bed.n_queries()
    );
    let profiles = match profile_queries(&bed) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("profiling failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let reps = pick_representatives(&profiles);
    println!(
        "representatives: QUERY1=topic {} ({:.0} %), QUERY2=topic {} ({:.0} %), \
         QUERY3=topic {} ({:.0} %), QUERY4=topic {} ({} terms)",
        reps.query1,
        profiles[reps.query1].savings * 100.0,
        reps.query2,
        profiles[reps.query2].savings * 100.0,
        reps.query3,
        profiles[reps.query3].savings * 100.0,
        reps.query4,
        profiles[reps.query4].n_terms
    );
    let ctx = ExpContext {
        bed: &bed,
        out: &out,
        profiles: &profiles,
        reps,
    };

    for name in &picked {
        let t = Instant::now();
        let result: Result<(), Box<dyn std::error::Error>> = match name.as_str() {
            "table1_2" => table1_2::run(&ctx).map(drop),
            "table4" => table4::run(&ctx).map(drop),
            "fig3" => fig3_table5::run(&ctx).map(drop),
            "fig4" => fig4::run(&ctx),
            "fig5_6" => fig5_8::run_add_only(&ctx).map(drop),
            "fig7_8" => fig5_8::run_add_drop(&ctx).map(drop),
            "table7" => table7::run(&ctx).map(drop),
            "aggregate" => aggregate::run(&ctx).map(drop),
            "effectiveness" => effectiveness::run(&ctx).map(drop),
            "ablation" => ablation::run(&ctx).map(drop),
            "feedback" => feedback_exp::run(&ctx).map(drop),
            "multiuser" => ir_bench::exp::multiuser::run(&ctx).map(drop),
            "ordering" => ir_bench::exp::ordering::run(&ctx).map(drop),
            "scaling" => ir_bench::exp::scaling::run(&ctx).map(drop),
            _ => unreachable!("validated above"),
        };
        match result {
            Ok(()) => println!("[{name} done in {:.1?}]", t.elapsed()),
            Err(e) => {
                eprintln!("experiment {name} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "\nall artifacts written to {}/ (total {:.1?})",
        out.path().display(),
        started.elapsed()
    );
    ExitCode::SUCCESS
}
