//! `report` — the analysis tool: one subcommand per question (see
//! [`USAGE`]); `report <subcommand> --help` lists its flags. Malformed
//! arguments exit 2 with the usage; I/O, run and `--check` failures
//! exit 1.

use std::process::ExitCode;

use cmpsim_bench::cli::Args;

mod audit;
mod events;
mod profile;
mod spans;
mod tail;
mod trace;

/// A subcommand's entry point: `Err` is a failure that exits 1.
type Run = fn(Args) -> Result<(), String>;

/// Every subcommand: name, usage, entry point.
const SUBCOMMANDS: [(&str, &str, Run); 6] = [
    ("events", events::USAGE, events::run),
    ("spans", spans::USAGE, spans::run),
    ("profile", profile::USAGE, profile::run),
    ("tail", tail::USAGE, tail::run),
    ("audit", audit::USAGE, audit::run),
    ("trace", trace::USAGE, trace::run),
];

const USAGE: &str = "usage: report <subcommand> [ARGS]  (report <subcommand> --help for its flags)
subcommands:
  events   summarize a cmpsim --trace-events JSONL file
  spans    critical-path attribution from transaction spans
  profile  host-profile the pinned policy x workload grid
  tail     follow a live telemetry stream
  audit    decision-audit report and consistency gate
  trace    footprint, sharing and reuse distances of a trace";

fn main() -> ExitCode {
    let mut args = Args::from_env("report", USAGE);
    let sub = args
        .next()
        .unwrap_or_else(|| args.fail("missing subcommand"));
    let Some(&(name, usage, run)) = SUBCOMMANDS.iter().find(|(name, ..)| *name == sub) else {
        args.fail(format!("unknown subcommand {sub}"))
    };
    let args = args.subcommand(name, usage);
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("report {name}: {e}");
            ExitCode::FAILURE
        }
    }
}
