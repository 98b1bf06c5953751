//! Regenerates the paper's fig6 (see the experiment module docs).
fn main() {
    cmpsim_bench::jobs_from_args();
    let profile = cmpsim_bench::Profile::from_env();
    let e = cmpsim_bench::experiments::by_id("fig6").expect("registered experiment");
    println!("== {} ==", e.title);
    println!("{}", (e.run)(&profile));
}
