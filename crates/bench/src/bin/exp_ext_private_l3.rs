//! Regenerates the §7 future-work extension: chip-private L3s.
fn main() {
    cmpsim_bench::jobs_from_args();
    let profile = cmpsim_bench::Profile::from_env();
    let e = cmpsim_bench::experiments::by_id("ext-private-l3").expect("registered experiment");
    println!("== {} ==", e.title);
    println!("{}", (e.run)(&profile));
}
