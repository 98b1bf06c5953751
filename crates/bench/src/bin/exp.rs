//! Runs one paper experiment by id, or all of them.
//!
//! ```text
//! exp <id>|all [--jobs N] [--check]
//! ```
//!
//! `exp all` prints the combined report that `EXPERIMENTS.md` is built
//! from; `exp <id>` prints one experiment (ids as in
//! [`experiments::all`], e.g. `fig2`, `ext-granularity`). `--check`,
//! valid only with `policy-faceoff`, self-checks the face-off harness
//! instead of printing its tables. A missing or unknown id exits 2 with
//! the list of ids, as does any malformed argument.
use std::num::NonZeroUsize;
use std::time::Instant;

use cmpsim_bench::cli::Args;
use cmpsim_bench::{experiments, set_jobs, Profile};

fn main() {
    let ids: Vec<_> = experiments::all().iter().map(|e| e.id).collect();
    let usage = format!(
        "usage: exp <id>|all [--jobs N] [--check]\nids: all, {}",
        ids.join(", ")
    );
    let mut args = Args::from_env("exp", &usage);
    let mut id = None;
    let mut check = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--jobs" => set_jobs(args.number::<NonZeroUsize>().get()),
            s if id.is_none() && !s.starts_with('-') => id = Some(arg),
            other => args.fail(format!("unexpected argument {other}")),
        }
    }
    let Some(id) = id else {
        args.fail("missing experiment id")
    };
    if check && id != "policy-faceoff" {
        args.fail("--check is only for policy-faceoff");
    }
    let profile = Profile::from_env();
    if id == "all" {
        run_all(&profile);
    } else if check {
        let fails = experiments::policy_faceoff::check(&profile);
        if !fails.is_empty() {
            for f in &fails {
                eprintln!("policy-faceoff check: FAIL: {f}");
            }
            std::process::exit(1);
        }
        println!("policy-faceoff check: PASS");
    } else {
        let Some(e) = experiments::by_id(&id) else {
            args.fail(format!("unknown experiment {id}"))
        };
        println!("== {} ==", e.title);
        println!("{}", (e.run)(&profile));
    }
}

/// Every experiment in paper order, each followed by its wall time.
fn run_all(profile: &Profile) {
    println!(
        "# Experiment report (scale factor {}, {} refs/thread)\n",
        profile.scale_factor, profile.refs_per_thread
    );
    for e in experiments::all() {
        let t0 = Instant::now();
        let out = (e.run)(profile);
        println!("== {} ==", e.title);
        println!("{}", out);
        println!("({}: {:.1}s)\n", e.id, t0.elapsed().as_secs_f64());
    }
}
