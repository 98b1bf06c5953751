//! Regenerates the decision-quality audit tables (see the experiment
//! module docs).
fn main() {
    cmpsim_bench::jobs_from_args();
    let profile = cmpsim_bench::Profile::from_env();
    let e = cmpsim_bench::experiments::by_id("policy-audit").expect("registered experiment");
    println!("== {} ==", e.title);
    println!("{}", (e.run)(&profile));
}
