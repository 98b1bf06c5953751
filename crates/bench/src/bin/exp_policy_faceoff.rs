//! Regenerates the policy face-off tables (see the experiment module
//! docs), or self-checks the harness with `--check`.
//!
//! ```text
//! exp_policy_faceoff [--check] [--jobs N]
//! ```
fn main() {
    cmpsim_bench::jobs_from_args();
    let check = std::env::args().any(|a| a == "--check");
    let profile = cmpsim_bench::Profile::from_env();
    if check {
        let fails = cmpsim_bench::experiments::policy_faceoff::check(&profile);
        if fails.is_empty() {
            println!("policy-faceoff check: PASS");
        } else {
            for f in &fails {
                eprintln!("policy-faceoff check: FAIL: {f}");
            }
            std::process::exit(1);
        }
        return;
    }
    let e = cmpsim_bench::experiments::by_id("policy-faceoff").expect("registered experiment");
    println!("== {} ==", e.title);
    println!("{}", (e.run)(&profile));
}
