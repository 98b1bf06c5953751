//! Live telemetry streaming: length-prefixed NDJSON over stdout or a
//! Unix socket.
//!
//! While [`crate::telemetry`] records *simulated* events to a file after
//! the fact, this module pushes interval counters and
//! [`crate::profiler::HostSample`]s out of a *running* simulation so an
//! external reader (`report tail` in `cmpsim-bench`) can watch the
//! sweep live.
//!
//! # Wire format
//!
//! Each frame is one line: the decimal byte length of the JSON object, a
//! single space, the object, `\n`:
//!
//! ```text
//! 52 {"seq":0,"type":"hello","schema":"cmpsim-telemetry/1"}
//! 97 {"seq":1,"type":"run_start","cell":0,...}
//! ```
//!
//! The first frame on every connection is the `hello` header carrying
//! [`STREAM_SCHEMA`]; all subsequent frames carry a stream-wide strictly
//! increasing `seq` (assigned under the writer lock, so the wire order
//! matches) and a `cell` id so one socket can multiplex a whole
//! `--jobs N` grid. Unknown `type`s must be skipped by readers: the
//! schema version only bumps on incompatible changes.
//!
//! Like the rest of the observability stack, a disabled
//! [`TelemetryStream`] is a `None` and costs one branch per call site.

use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::interval::IntervalRecord;
use crate::profiler::HostSample;
use crate::Cycle;

/// Schema identifier sent in every `hello` frame. Readers should accept
/// this exact value and refuse streams with a different major version.
pub const STREAM_SCHEMA: &str = "cmpsim-telemetry/1";

/// The `hello` header frame body (seq 0, replayed to every late-attaching
/// socket client).
fn hello_json() -> String {
    format!("{{\"seq\":0,\"type\":\"hello\",\"schema\":\"{STREAM_SCHEMA}\"}}")
}

fn frame(json: &str) -> String {
    format!("{} {json}\n", json.len())
}

struct Inner {
    seq: u64,
    conns: Vec<Box<dyn Write + Send>>,
}

impl Inner {
    /// Writes one frame to every connection, dropping the ones whose
    /// writes fail (a detached tail must not kill the sweep).
    fn broadcast(&mut self, json: &str) {
        let line = frame(json);
        self.conns.retain_mut(|c| {
            c.write_all(line.as_bytes())
                .and_then(|()| c.flush())
                .is_ok()
        });
    }
}

struct Core {
    inner: Arc<Mutex<Inner>>,
    shutdown: Arc<AtomicBool>,
    /// Socket path to unlink when the stream is dropped.
    path: Option<PathBuf>,
}

impl Drop for Core {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(p) = &self.path {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// Cheap-to-clone handle for live telemetry streaming.
///
/// Clones share one sequence counter and connection set, so every run in
/// a parallel grid multiplexes onto the same ordered stream.
#[derive(Clone, Default)]
pub struct TelemetryStream {
    core: Option<Arc<Core>>,
}

impl std::fmt::Debug for TelemetryStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryStream")
            .field("enabled", &self.core.is_some())
            .finish()
    }
}

impl TelemetryStream {
    /// A stream that sends nothing (the default).
    pub fn disabled() -> Self {
        TelemetryStream { core: None }
    }

    /// Streams frames to standard output.
    pub fn stdout() -> Self {
        Self::to_writer(std::io::stdout())
    }

    /// Streams frames to an arbitrary writer (tests, pipes, `io::sink`).
    /// The `hello` frame is written immediately.
    pub fn to_writer<W: Write + Send + 'static>(w: W) -> Self {
        let mut inner = Inner {
            seq: 0,
            conns: vec![Box::new(w)],
        };
        inner.broadcast(&hello_json());
        inner.seq = 1;
        TelemetryStream {
            core: Some(Arc::new(Core {
                inner: Arc::new(Mutex::new(inner)),
                shutdown: Arc::new(AtomicBool::new(false)),
                path: None,
            })),
        }
    }

    /// Binds a Unix listener at `path` (replacing any stale socket file)
    /// and accepts clients on a background thread. Every client gets the
    /// `hello` frame on attach, then all frames broadcast from then on;
    /// the simulation never blocks on a slow or absent reader. The
    /// socket file is removed when the stream is dropped.
    pub fn listen_unix(path: &Path) -> std::io::Result<Self> {
        let _ = std::fs::remove_file(path);
        let listener = std::os::unix::net::UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let inner = Arc::new(Mutex::new(Inner {
            seq: 1,
            conns: Vec::new(),
        }));
        let shutdown = Arc::new(AtomicBool::new(false));
        let thread_inner = Arc::clone(&inner);
        let thread_stop = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            let hello = frame(&hello_json());
            while !thread_stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((mut conn, _)) => {
                        if conn
                            .write_all(hello.as_bytes())
                            .and_then(|()| conn.flush())
                            .is_ok()
                        {
                            let mut inner = thread_inner.lock().expect("stream accept lock");
                            inner.conns.push(Box::new(conn));
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(TelemetryStream {
            core: Some(Arc::new(Core {
                inner,
                shutdown,
                path: Some(path.to_path_buf()),
            })),
        })
    }

    /// Whether streaming is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Number of currently attached sinks (0 when disabled).
    pub fn client_count(&self) -> usize {
        match &self.core {
            Some(core) => core.inner.lock().expect("stream lock").conns.len(),
            None => 0,
        }
    }

    /// Sends one record frame. `body` is a comma-led list of extra JSON
    /// fields (may be empty); `seq` is assigned under the writer lock so
    /// frames appear on the wire in sequence order.
    fn send(&self, kind: &str, cell: u64, body: &str) {
        let Some(core) = &self.core else { return };
        let mut inner = core.inner.lock().expect("stream lock");
        let json = format!(
            "{{\"seq\":{},\"type\":\"{kind}\",\"cell\":{cell}{body}}}",
            inner.seq
        );
        inner.seq += 1;
        inner.broadcast(&json);
    }

    /// Announces a run starting on `cell`.
    pub fn send_run_start(&self, cell: u64, workload: &str, policy: &str, refs_per_thread: u64) {
        self.send(
            "run_start",
            cell,
            &format!(
                ",\"workload\":\"{workload}\",\"policy\":\"{policy}\",\
                 \"refs_per_thread\":{refs_per_thread}"
            ),
        );
    }

    /// Streams one closed interval-counter window.
    pub fn send_interval(&self, cell: u64, rec: &IntervalRecord) {
        if self.core.is_none() {
            return;
        }
        let mut body = format!(",\"start\":{},\"end\":{}", rec.start, rec.end);
        for (name, delta) in &rec.counters {
            body.push_str(&format!(",\"{name}\":{delta}"));
        }
        self.send("interval", cell, &body);
    }

    /// Streams one host-profiler sample.
    pub fn send_host_sample(&self, cell: u64, sample: &HostSample) {
        if self.core.is_none() {
            return;
        }
        self.send("host_sample", cell, &format!(",{}", sample.to_json_body()));
    }

    /// Streams one cumulative decision-audit snapshot.
    pub fn send_decision(&self, cell: u64, f: &DecisionFrame) {
        if self.core.is_none() {
            return;
        }
        self.send(
            "decision",
            cell,
            &format!(
                ",\"cycle\":{},\"decisions\":{},\"aborts\":{},\"aborts_correct\":{},\
                 \"aborts_mispredicted\":{},\"allows_redundant\":{},\"snarfs\":{},\
                 \"snarfs_useful\":{},\"snarfs_wasted\":{},\"engaged\":{}",
                f.cycle,
                f.decisions,
                f.aborts,
                f.aborts_correct,
                f.aborts_mispredicted,
                f.allows_redundant,
                f.snarfs,
                f.snarfs_useful,
                f.snarfs_wasted,
                u8::from(f.engaged)
            ),
        );
    }

    /// Announces a run finishing on `cell`.
    pub fn send_run_end(&self, cell: u64, cycles: Cycle, events: u64) {
        self.send(
            "run_end",
            cell,
            &format!(",\"cycles\":{cycles},\"events\":{events}"),
        );
    }
}

/// One `decision` frame: cumulative decision-audit counters at an
/// interval boundary. Kept engine-side (plain fields, no simulator
/// types) so the stream's frame vocabulary lives in one module; the
/// core's audit layer fills it in. `engaged` is serialized as `0`/`1`
/// so [`frame_u64`] parses every numeric field uniformly.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecisionFrame {
    /// Simulated cycle the snapshot was taken at.
    pub cycle: Cycle,
    /// WBHT verdicts audited so far.
    pub decisions: u64,
    /// Abort verdicts so far.
    pub aborts: u64,
    /// Aborts resolved correct so far.
    pub aborts_correct: u64,
    /// Aborts resolved mispredicted so far.
    pub aborts_mispredicted: u64,
    /// Allow verdicts squashed as already-in-L3 so far.
    pub allows_redundant: u64,
    /// Snarf placements so far.
    pub snarfs: u64,
    /// Snarfs resolved useful so far.
    pub snarfs_useful: u64,
    /// Snarfs resolved wasted so far.
    pub snarfs_wasted: u64,
    /// Retry-rate switch state last observed at a decision site.
    pub engaged: bool,
}

/// Reads one length-prefixed frame, returning the JSON payload
/// (`Ok(None)` at clean end-of-stream). Fails on a malformed prefix or a
/// length that disagrees with the payload, so corruption is detected at
/// the frame where it happens.
pub fn read_frame<R: BufRead>(r: &mut R) -> std::io::Result<Option<String>> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let line = line.trim_end_matches('\n');
    if line.is_empty() {
        return Ok(None);
    }
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let (len, json) = line
        .split_once(' ')
        .ok_or_else(|| bad(format!("frame missing length prefix: {line:?}")))?;
    let len: usize = len
        .parse()
        .map_err(|_| bad(format!("bad frame length {len:?}")))?;
    if json.len() != len {
        return Err(bad(format!(
            "frame length {len} != payload bytes {}",
            json.len()
        )));
    }
    Ok(Some(json.to_string()))
}

/// Extracts an unsigned integer field from a flat JSON object (the
/// stream's frames are flat by construction). Returns `None` when the
/// key is absent or non-numeric.
pub fn frame_u64(json: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = &json[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts a string field from a flat JSON object (no escape handling:
/// the stream never emits escaped strings).
pub fn frame_str<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let at = json.find(&pat)? + pat.len();
    let rest = &json[at..];
    rest.split('"').next()
}

/// Shared in-memory sink for tests: a [`TelemetryStream`] writing into a
/// buffer the test can read back.
#[derive(Debug, Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// A new empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies out everything written so far.
    pub fn contents(&self) -> Vec<u8> {
        self.0.lock().expect("shared buf lock").clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("shared buf lock")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn frames(buf: &SharedBuf) -> Vec<String> {
        let bytes = buf.contents();
        let mut r = BufReader::new(&bytes[..]);
        let mut out = Vec::new();
        while let Some(json) = read_frame(&mut r).expect("well-formed frame") {
            out.push(json);
        }
        out
    }

    #[test]
    fn disabled_stream_is_inert() {
        let s = TelemetryStream::disabled();
        assert!(!s.is_enabled());
        assert_eq!(s.client_count(), 0);
        s.send_run_start(0, "w", "p", 1); // must not panic
    }

    #[test]
    fn hello_then_monotone_seq() {
        let buf = SharedBuf::new();
        let s = TelemetryStream::to_writer(buf.clone());
        s.send_run_start(0, "trade2", "combined", 100);
        s.send_run_end(0, 4242, 17);
        let got = frames(&buf);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], hello_json());
        assert_eq!(frame_str(&got[0], "schema"), Some(STREAM_SCHEMA));
        for (i, f) in got.iter().enumerate() {
            assert_eq!(frame_u64(f, "seq"), Some(i as u64), "{f}");
        }
        assert_eq!(frame_str(&got[1], "type"), Some("run_start"));
        assert_eq!(frame_u64(&got[2], "cycles"), Some(4242));
    }

    #[test]
    fn clones_share_the_sequence() {
        let buf = SharedBuf::new();
        let a = TelemetryStream::to_writer(buf.clone());
        let b = a.clone();
        a.send_run_end(0, 1, 1);
        b.send_run_end(1, 2, 2);
        let got = frames(&buf);
        assert_eq!(frame_u64(&got[1], "seq"), Some(1));
        assert_eq!(frame_u64(&got[2], "seq"), Some(2));
        assert_eq!(frame_u64(&got[2], "cell"), Some(1));
    }

    #[test]
    fn interval_frames_carry_counter_deltas() {
        let buf = SharedBuf::new();
        let s = TelemetryStream::to_writer(buf.clone());
        let rec = IntervalRecord {
            start: 0,
            end: 1000,
            counters: vec![("l2_misses", 42)],
        };
        s.send_interval(3, &rec);
        let got = frames(&buf);
        assert_eq!(frame_str(&got[1], "type"), Some("interval"));
        assert_eq!(frame_u64(&got[1], "l2_misses"), Some(42));
        assert_eq!(frame_u64(&got[1], "cell"), Some(3));
    }

    #[test]
    fn decision_frames_carry_cumulative_counters() {
        let buf = SharedBuf::new();
        let s = TelemetryStream::to_writer(buf.clone());
        let f = DecisionFrame {
            cycle: 9_000,
            decisions: 12,
            aborts: 5,
            aborts_correct: 3,
            aborts_mispredicted: 1,
            allows_redundant: 2,
            snarfs: 4,
            snarfs_useful: 2,
            snarfs_wasted: 1,
            engaged: true,
        };
        s.send_decision(7, &f);
        let got = frames(&buf);
        assert_eq!(frame_str(&got[1], "type"), Some("decision"));
        assert_eq!(frame_u64(&got[1], "cell"), Some(7));
        assert_eq!(frame_u64(&got[1], "cycle"), Some(9_000));
        assert_eq!(frame_u64(&got[1], "aborts_correct"), Some(3));
        assert_eq!(frame_u64(&got[1], "snarfs_useful"), Some(2));
        assert_eq!(frame_u64(&got[1], "engaged"), Some(1));
        // Disabled stream: inert.
        TelemetryStream::disabled().send_decision(0, &f);
    }

    #[test]
    fn read_frame_rejects_length_mismatch() {
        let mut r = BufReader::new(&b"5 {}\n"[..]);
        assert!(read_frame(&mut r).is_err());
        let mut r = BufReader::new(&b"nope {}\n"[..]);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn unix_socket_replays_hello_to_late_client() {
        let dir = std::env::temp_dir().join(format!("cmpsim-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.sock");
        let s = TelemetryStream::listen_unix(&path).expect("bind");
        // Frames sent before any client attaches are simply dropped.
        s.send_run_start(0, "w", "p", 1);
        let sock = std::os::unix::net::UnixStream::connect(&path).expect("connect");
        // Wait for the accept thread to register the client.
        for _ in 0..200 {
            if s.client_count() == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(s.client_count(), 1);
        s.send_run_end(0, 99, 7);
        drop(s); // closes the writer side and unlinks the socket
        let mut r = BufReader::new(sock);
        let hello = read_frame(&mut r).unwrap().expect("hello frame");
        assert_eq!(frame_str(&hello, "schema"), Some(STREAM_SCHEMA));
        let end = read_frame(&mut r).unwrap().expect("run_end frame");
        assert_eq!(frame_str(&end, "type"), Some("run_end"));
        assert_eq!(frame_u64(&end, "cycles"), Some(99));
        assert!(!path.exists(), "socket file unlinked on drop");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
