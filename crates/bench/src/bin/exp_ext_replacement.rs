//! Regenerates the §7 future-work extension: history-aware replacement.
fn main() {
    cmpsim_bench::jobs_from_args();
    let profile = cmpsim_bench::Profile::from_env();
    let e = cmpsim_bench::experiments::by_id("ext-replacement").expect("registered experiment");
    println!("== {} ==", e.title);
    println!("{}", (e.run)(&profile));
}
