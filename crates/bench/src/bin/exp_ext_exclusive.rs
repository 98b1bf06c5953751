//! Regenerates the retaining-vs-exclusive L3 victim-cache ablation.
fn main() {
    cmpsim_bench::jobs_from_args();
    let profile = cmpsim_bench::Profile::from_env();
    let e = cmpsim_bench::experiments::by_id("ext-exclusive").expect("registered experiment");
    println!("== {} ==", e.title);
    println!("{}", (e.run)(&profile));
}
