//! Runs every table/figure experiment and prints a combined report
//! (the source of `EXPERIMENTS.md`).
use std::time::Instant;

fn main() {
    cmpsim_bench::jobs_from_args();
    let profile = cmpsim_bench::Profile::from_env();
    println!(
        "# Experiment report (scale factor {}, {} refs/thread)\n",
        profile.scale_factor, profile.refs_per_thread
    );
    for e in cmpsim_bench::experiments::all() {
        let t0 = Instant::now();
        let out = (e.run)(&profile);
        println!("== {} ==", e.title);
        println!("{}", out);
        println!("({}: {:.1}s)\n", e.id, t0.elapsed().as_secs_f64());
    }
}
