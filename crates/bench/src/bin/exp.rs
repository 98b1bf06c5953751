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
//! the list of ids.
use std::time::Instant;

use cmpsim_bench::{experiments, Profile};

/// Prints the usage line and the registered ids, then exits 2.
fn usage() -> ! {
    let ids: Vec<_> = experiments::all().iter().map(|e| e.id).collect();
    eprintln!("usage: exp <id>|all [--jobs N] [--check]");
    eprintln!("ids: all, {}", ids.join(", "));
    std::process::exit(2);
}

fn main() {
    cmpsim_bench::jobs_from_args();
    let mut id = None;
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => check = true,
            // Parsed by `jobs_from_args` above.
            "--jobs" => {
                args.next();
            }
            s if s.starts_with("--jobs=") => {}
            s if id.is_none() && !s.starts_with('-') => id = Some(a),
            _ => usage(),
        }
    }
    let Some(id) = id else { usage() };
    if check && id != "policy-faceoff" {
        usage();
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
            usage()
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
