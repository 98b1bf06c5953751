//! Trace-driven methodology: record a synthetic workload to the binary
//! trace format, replay it through the simulator, and verify the replay
//! behaves like the paper's trace-fed Mambo runs.

use cmp_hierarchies::adaptive::{run, RunSpec, Source, System, SystemConfig};
use cmp_hierarchies::trace::{
    file, ReferenceSource, SyntheticWorkload, ThreadId, TracePlayback, Workload,
};

#[test]
fn recorded_trace_replays_deterministically() {
    let cfg = SystemConfig::scaled(16);
    let params = Workload::Cpw2.params(cfg.num_threads(), cfg.cache_scale());
    let mut gen = SyntheticWorkload::new(params, 99).unwrap();
    let records = gen.generate(32_000); // 2000 per thread

    // Round-trip through the on-disk format.
    let mut buf = Vec::new();
    file::write_trace(&mut buf, &records).unwrap();
    let loaded = file::read_trace(&buf[..]).unwrap();
    assert_eq!(loaded, records);

    let run = |records: Vec<_>| {
        let playback = TracePlayback::new("cpw2-trace", records, 16, 1).unwrap();
        let mut sys = System::with_source(cfg.clone(), Box::new(playback)).unwrap();
        sys.run(1_500)
    };
    let a = run(loaded.clone());
    let b = run(loaded);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.refs, 1_500 * 16);
    assert!(a.cycles > 0);
}

#[test]
fn run_over_a_recorded_trace_matches_the_direct_system() {
    // The runner's trace source builds the same system as
    // `System::with_source`: identical statistics, and the report
    // names the workload by the playback name.
    let cfg = SystemConfig::scaled(16);
    let params = Workload::Cpw2.params(cfg.num_threads(), cfg.cache_scale());
    let records = SyntheticWorkload::new(params, 99).unwrap().generate(32_000);
    let playback = TracePlayback::new("cpw2-trace", records, 16, 1).unwrap();

    let mut sys = System::with_source(cfg.clone(), Box::new(playback.clone())).unwrap();
    let direct = sys.run(1_500);
    let report = run(RunSpec::new(cfg, Source::Trace(playback), 1_500)).unwrap();
    assert_eq!(report.workload, "cpw2-trace");
    assert_eq!(format!("{:?}", report.stats), format!("{direct:?}"));
    assert_eq!(report.stats.refs, 1_500 * 16);
}

#[test]
fn playback_wraps_short_traces() {
    let cfg = SystemConfig::scaled(16);
    let params = Workload::NotesBench.params(cfg.num_threads(), cfg.cache_scale());
    let mut gen = SyntheticWorkload::new(params, 7).unwrap();
    // Only 100 records per thread, but the run wants 500: wraps.
    let records = gen.generate(1_600);
    let playback = TracePlayback::new("short", records, 16, 1).unwrap();
    let mut sys = System::with_source(cfg, Box::new(playback)).unwrap();
    let stats = sys.run(500);
    assert_eq!(stats.refs, 500 * 16);
}

#[test]
fn playback_and_synthetic_agree_on_reference_stream() {
    // Replaying a recorded synthetic stream must present the simulator
    // with the same per-thread references the live generator would.
    let cfg = SystemConfig::scaled(16);
    let params = Workload::Tp.params(cfg.num_threads(), cfg.cache_scale());
    let mut live = SyntheticWorkload::new(params.clone(), 5).unwrap();
    let mut recorder = SyntheticWorkload::new(params, 5).unwrap();
    let records = recorder.generate(160);
    let mut playback = TracePlayback::new("tp", records, 16, 1).unwrap();
    for i in 0..160 {
        let t = ThreadId::new((i % 16) as u16);
        assert_eq!(playback.next_record(t), live.next_record(t));
    }
}
