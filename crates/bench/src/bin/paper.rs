//! `paper` — regenerate every table and figure of the tree-clock paper.
//!
//! ```text
//! USAGE: paper [SUBCOMMAND] [--quick|--full] [--out DIR]
//! ```
//!
//! See `paper --help` (or [`USAGE`]) for the subcommand list.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use tc_bench::render::TextTable;
use tc_bench::suite::Scale;
use tc_bench::tables::{self, SuiteResult};
use tc_bench::{figures, l0};

struct Args {
    command: String,
    scale: Scale,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut command = None;
    let mut scale = Scale::Default;
    let mut out = PathBuf::from("results");
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--full" => scale = Scale::Full,
            "--out" => {
                out = PathBuf::from(argv.next().ok_or("--out requires a directory")?);
            }
            "--help" | "-h" => return Err("help".to_owned()),
            cmd if !cmd.starts_with('-') && command.is_none() => {
                command = Some(cmd.to_owned());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        command: command.unwrap_or_else(|| "all".to_owned()),
        scale,
        out,
    })
}

fn emit(table: &TextTable, out: &std::path::Path, file: &str) {
    println!("{table}");
    let path = out.join(file);
    match table.write_csv(&path) {
        Ok(()) => println!("[csv written to {}]\n", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}\n", path.display()),
    }
}

fn progress(label: &str) {
    eprint!("\r  measuring {label:<40}");
    let _ = std::io::stderr().flush();
}

fn progress_done() {
    eprintln!("\r{:<52}", "");
}

/// Runs the suite sweep once; reused by table2 and figures 6-9.
fn suite_results(scale: Scale) -> Vec<SuiteResult> {
    eprintln!("running the benchmark suite (39 traces × 3 orders × 2 modes × 3 clocks)...");
    let results = tables::run_suite(scale, progress);
    progress_done();
    results
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}\n");
            }
            eprint!("{USAGE}");
            return if e == "help" {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            };
        }
    };
    let out = &args.out;
    let scale = args.scale;

    match args.command.as_str() {
        "table1" => {
            let stats: Vec<_> = tables::suite_stats(scale)
                .into_iter()
                .map(|(_, s)| s)
                .collect();
            emit(&tables::table1(&stats), out, "table1.csv");
        }
        "table3" => {
            let stats = tables::suite_stats(scale);
            emit(&tables::table3(&stats), out, "table3.csv");
        }
        "table2" | "fig6" | "fig7" | "fig8" | "fig9" => {
            let results = suite_results(scale);
            match args.command.as_str() {
                "table2" => emit(&tables::table2(&results), out, "table2.csv"),
                "fig6" => emit(&figures::fig6(&results), out, "fig6.csv"),
                "fig7" => emit(&figures::fig7(&results, 0.01), out, "fig7.csv"),
                "fig8" => emit(&figures::fig8(&results), out, "fig8.csv"),
                "fig9" => emit(&figures::fig9(&results), out, "fig9.csv"),
                _ => unreachable!(),
            }
        }
        "fig10" => {
            eprintln!("running the figure-10 scalability sweep...");
            let t = figures::fig10(scale, progress);
            progress_done();
            emit(&t, out, "fig10.csv");
        }
        "ablation" => {
            emit(&figures::ablation(scale), out, "ablation.csv");
        }
        "l0" => {
            emit(&l0::l0(scale), out, "l0.csv");
        }
        "all" => {
            let stats = tables::suite_stats(scale);
            let flat: Vec<_> = stats.iter().map(|(_, s)| *s).collect();
            emit(&tables::table1(&flat), out, "table1.csv");
            emit(&tables::table3(&stats), out, "table3.csv");
            let results = suite_results(scale);
            emit(&tables::table2(&results), out, "table2.csv");
            emit(&figures::fig6(&results), out, "fig6.csv");
            emit(&figures::fig7(&results, 0.01), out, "fig7.csv");
            emit(&figures::fig8(&results), out, "fig8.csv");
            emit(&figures::fig9(&results), out, "fig9.csv");
            eprintln!("running the figure-10 scalability sweep...");
            let t = figures::fig10(scale, progress);
            progress_done();
            emit(&t, out, "fig10.csv");
            emit(&figures::ablation(scale), out, "ablation.csv");
        }
        other => {
            eprintln!("error: unknown subcommand `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

const USAGE: &str = "\
USAGE: paper [SUBCOMMAND] [--quick|--full] [--out DIR]

SUBCOMMANDS
  all       run everything (default)
  table1    aggregate trace statistics
  table2    average TC speedups over VC, with ranges and
            win/tie/loss counts
  table3    per-benchmark trace information
  fig6      per-trace times, speedup range and verdict, with thread
            count and VTWork per event
  fig7      HB+Analysis speedup vs sync%
  fig8      work ratios vs the VTWork lower bound
  fig9      VCWork/TCWork histogram
  fig10     scalability scenarios sweep (TC vs VC)
  ablation  TC-examined vs VTWork vs VC-examined (extension)
  l0        ns per timed join, monotone copy and first publication
            at 8, 64 and 360 threads, TC and VC (extension; not
            part of `all`)

Each timed cell is the median of 5 runs after a warm-up; a speedup's
range is VC_Q1/X_Q3 to VC_Q3/X_Q1, and a trace whose Q1-Q3 ranges
overlap counts as a tie.

OPTIONS
  --quick   ~40k-event suite traces, 800k-event Figure 10 traces
            (fast smoke run)
  --full    ~1M-event suite traces, 2M-event Figure 10 traces
            (closest to the paper)
  --out DIR directory for CSV output (default: results)
";
