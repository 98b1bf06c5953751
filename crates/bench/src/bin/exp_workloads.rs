//! Regenerates the "workloads" supplementary experiment.
fn main() {
    cmpsim_bench::jobs_from_args();
    let profile = cmpsim_bench::Profile::from_env();
    let id = "workloads".replace('_', "-");
    let e = cmpsim_bench::experiments::by_id(&id).expect("registered experiment");
    println!("== {} ==", e.title);
    println!("{}", (e.run)(&profile));
}
