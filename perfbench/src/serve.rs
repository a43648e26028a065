//! The serve phases: the `vdsms-serve` daemon in its own process on a
//! unix socket, driven by one `Client` connection from one thread.
//!
//! * Set-up: spawn and bind the daemon, connect, `hello`, subscribe the
//!   catalogue over the wire. Extra set-ups of throwaway daemons can be
//!   timed between flood passes.
//! * Flood (closed loop): every stream is attached once; each pass sends
//!   the streams' bytes in fixed-size chunks round robin as fast as the
//!   socket takes them and ends with a health round trip. `serve_kfps`
//!   is the median over untraced passes of key frames per CPU second of
//!   the serving path: the daemon process and the client's process.
//! * Open loop: the same passes, with every chunk due at a fixed offered
//!   key-frame rate, subscribe/unsubscribe churn and health round trips
//!   interleaved. Detection latency runs from the due time of the chunk
//!   that carried the span's last key frame to the receipt of the push.
//!
//! Every operation is logged; afterwards the log is replayed through an
//! in-process serial `Fleet` over the same bytes, and the daemon's
//! detections must equal that oracle's bit for bit.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use vdsms_core::{Fleet, StreamDetection};
use vdsms_features::{FeatureConfig, FeatureExtractor, FingerprintStream};
use vdsms_serve::client::{ClientError, DetectionEvent};
use vdsms_serve::protocol::encode_request;
use vdsms_serve::{Client, Daemon, Endpoint, Request, ServeConfig};

use crate::gen::Workload;
use crate::hostspeed::Tracker;
use crate::inproc;
use crate::openloop::{latency_from_due, OpenLoop};
use crate::stats::{median, CpuClock, Samples};
use crate::trace::Recorder;
use crate::workloads::{WorkloadSpec, CHUNK_BYTES};

const READY: &str = "perfbench-daemon-ready";
/// Health round trips during the open loop, one every this many seconds.
const HEALTH_EVERY_S: f64 = 0.1;
/// Churn queries live at once before the oldest is unsubscribed.
const CHURN_LIVE: usize = 4;
const TENANT: u64 = 1;

/// The daemon's configuration: defaults, with quotas wide enough for the
/// catalogue and churn, and idle expiry off (the client pauses between
/// phases).
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        detector: inproc::config(),
        features: FeatureConfig::default(),
        max_subscriptions_per_tenant: 1 << 16,
        max_streams_per_session: 64,
        idle_timeout_ms: 0,
        ..ServeConfig::default()
    }
}

/// Entry point of the daemon child process. Exits when told to shut
/// down, or when its parent goes away (stdin closes).
pub fn daemon_main(socket: &Path) -> std::io::Result<()> {
    let daemon = Daemon::bind(&Endpoint::Unix(socket.to_path_buf()), serve_config())?;
    std::thread::spawn(|| {
        let mut sink = [0u8; 64];
        let mut stdin = std::io::stdin();
        while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
        std::process::exit(3);
    });
    println!("{READY}");
    let report = daemon.run();
    eprintln!("daemon drained: {report:?}");
    Ok(())
}

/// A daemon child process; killed and reaped on drop if still running.
pub struct DaemonProc {
    child: Child,
    socket: PathBuf,
    cpu: Option<CpuClock>,
}

impl DaemonProc {
    pub fn spawn(socket: &Path) -> std::io::Result<DaemonProc> {
        let exe = std::env::current_exe()?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .arg("--socket")
            .arg(socket)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("piped stdout");
        let cpu = CpuClock::of_process(child.id());
        let proc = DaemonProc {
            child,
            socket: socket.to_path_buf(),
            cpu,
        };
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        if line.trim() != READY {
            return Err(std::io::Error::other(format!(
                "daemon did not start: {line:?}"
            )));
        }
        // The daemon prints nothing after the ready line.
        Ok(proc)
    }

    /// CPU seconds the daemon has used so far, all threads; NaN if unknown.
    pub fn cpu_s(&self) -> f64 {
        self.cpu.map_or(f64::NAN, CpuClock::seconds)
    }

    /// Peak RSS of the daemon so far, MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::stats::peak_rss_mb(&self.child.id().to_string())
    }

    /// Ask the daemon to drain and wait for it to exit; kill it if it
    /// does not within `timeout`. Returns whether it exited cleanly.
    pub fn shutdown(mut self, client: &Client, timeout: Duration) -> bool {
        let asked = client.shutdown_server().is_ok();
        let drained = asked && client.wait_drained(timeout);
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return drained && status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return false;
                }
            }
        }
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One logged client operation, in send order.
#[derive(Debug, Clone)]
enum Op {
    Attach {
        stream: usize,
        global: u32,
    },
    /// A chunk after which the daemon has ingested the stream's first
    /// `upto` key frames.
    Chunk {
        stream: usize,
        upto: usize,
    },
    End {
        stream: usize,
    },
    Subscribe {
        id: u32,
        cells: Vec<u64>,
    },
    Unsubscribe {
        id: u32,
    },
}

/// A detection as compared with the oracle: stream, query, span, windows
/// and the similarity's bits.
type DetKey = (u32, u32, u64, u64, u64, u64);

fn key_of_event(e: &DetectionEvent) -> DetKey {
    (
        e.stream_id,
        e.query_id,
        e.start_frame,
        e.end_frame,
        e.windows,
        e.similarity.to_bits(),
    )
}

fn key_of_detection(d: &StreamDetection) -> DetKey {
    let x = &d.detection;
    (
        d.stream_id,
        x.query_id,
        x.start_frame,
        x.end_frame,
        x.windows as u64,
        x.similarity.to_bits(),
    )
}

#[derive(Debug, Default)]
pub struct ServeResult {
    pub setup_s: Vec<f64>,
    /// Key frames per CPU second (daemon and client process) of each
    /// untraced and each traced flood pass, at the host's nominal speed.
    pub flood_kfps: Vec<f64>,
    pub traced_flood_kfps: Vec<f64>,
    /// Host speed over each untraced pass (see `hostspeed`).
    pub speeds: Vec<f64>,
    /// The medians of those.
    pub serve_kfps: f64,
    pub traced_serve_kfps: f64,
    /// Key frames over wall-clock seconds of all untraced passes.
    pub wall_serve_kfps: f64,
    pub flood_keyframes: u64,
    pub send_chunk_us: Samples,
    pub end_ack_ms: Samples,
    pub wire_bytes: u64,
    pub wire_keyframes: u64,
    pub detect_ms: Samples,
    pub subscribe_ms: Samples,
    pub rtt_ms: Samples,
    pub queue_depth_max: u64,
    pub late_ms: Samples,
    pub offered_kfps: f64,
    pub achieved_kfps: f64,
    pub lagged: u64,
    pub errors: Vec<String>,
    pub mismatches: u64,
    pub received: u64,
    pub expected: u64,
    pub peak_rss_mb: Option<f64>,
    pub attempted: u64,
    pub clean_exit: bool,
}

impl ServeResult {
    pub fn failed(&self) -> u64 {
        self.lagged + self.errors.len() as u64 + self.mismatches
    }
}

/// An attached stream: which workload stream it carries, and the due
/// time of every chunk sent on it (open loop only), indexed by pass.
struct Attached {
    stream: usize,
    chunk_due_s: Vec<Vec<f64>>,
}

/// One chunk of a pass: stream, byte range, and the stream's cumulative
/// key frames ingested once it has arrived.
type Chunk = (usize, std::ops::Range<usize>, usize);

/// A connected client session against a running daemon.
pub struct ServeRun<'w> {
    w: &'w Workload,
    spec: &'w WorkloadSpec,
    client: Client,
    ops: Vec<Op>,
    attached: BTreeMap<u32, Attached>,
    /// Global ids of the streams attached for the current phase.
    globals: Vec<u32>,
    received: Vec<DetectionEvent>,
    next_query: u32,
    live_churn: VecDeque<u32>,
    churn_cursor: usize,
    /// Open-loop clock origin, when the open loop runs.
    open_start: Option<Instant>,
    r: ServeResult,
    frame_overhead: u64,
    daemon: DaemonProc,
    /// Flood passes sent so far; wall-clock seconds of the untraced ones.
    passes: usize,
    flood_busy_s: f64,
    host: Option<Tracker>,
}

impl ServeRun<'_> {
    fn fail(&mut self, what: &str, e: &ClientError) {
        self.r.errors.push(format!("{what}: {e}"));
    }

    /// The chunk of pass `pass` that completed the key frame with stream
    /// frame index `end_frame`: pass 0 is chunked from the start of the
    /// bytes, later passes (record bytes only) from the end of the header.
    fn chunk_of(&self, stream: usize, end_frame: u64) -> Option<(usize, usize)> {
        let st = &self.w.streams[stream];
        let pass = (end_frame / st.frames) as usize;
        let local = end_frame % st.frames;
        let i = st
            .keyframes
            .binary_search_by_key(&local, |k| k.frame_index)
            .ok()?;
        let base = if pass == 0 { 0 } else { st.header_len };
        Some((pass, (st.keyframes[i].end - base - 1) / CHUNK_BYTES))
    }

    /// Take pushed detections; in the open loop, each gets a latency from
    /// the due time of the chunk that carried its last key frame.
    fn poll_detections(&mut self) {
        let events = self.client.take_detections();
        if events.is_empty() {
            return;
        }
        let now = Instant::now();
        for e in events {
            if let (Some(start), Some(att)) = (self.open_start, self.attached.get(&e.stream_id)) {
                let due = self
                    .chunk_of(att.stream, e.end_frame)
                    .and_then(|(pass, chunk)| att.chunk_due_s.get(pass)?.get(chunk).copied());
                if let Some(due) = due {
                    let recv = now.duration_since(start).as_secs_f64();
                    self.r.detect_ms.push(latency_from_due(due, recv) * 1e3);
                }
            }
            self.received.push(e);
        }
    }

    /// Attach every stream for a phase; false if any attach failed.
    fn attach_all(&mut self) -> bool {
        self.globals.clear();
        for s in 0..self.w.streams.len() {
            self.r.attempted += 1;
            match self.client.attach_stream(s as u32) {
                Ok(global) => {
                    self.ops.push(Op::Attach { stream: s, global });
                    self.attached.insert(
                        global,
                        Attached {
                            stream: s,
                            chunk_due_s: Vec::new(),
                        },
                    );
                    self.globals.push(global);
                }
                Err(e) => self.fail("attach", &e),
            }
        }
        self.globals.len() == self.w.streams.len()
    }

    /// End every stream of a phase that sent `passes` passes, checking the
    /// daemon ingested every key frame.
    fn end_all(&mut self, passes: usize) {
        for s in 0..self.w.streams.len() {
            self.r.attempted += 1;
            match self.client.end_stream(s as u32) {
                Ok(info) => {
                    self.ops.push(Op::End { stream: s });
                    let want = (passes * self.w.streams[s].keyframes.len()) as u64;
                    if info.keyframes != want {
                        self.r.errors.push(format!(
                            "stream {s}: daemon ingested {} key frames of {want}",
                            info.keyframes
                        ));
                    }
                }
                Err(e) => self.fail("end_stream", &e),
            }
        }
    }

    /// Pass `pass` of every stream in round-robin chunk order. The first
    /// pass sends the whole bitstream; later passes resend its records, so
    /// the daemon sees one continuous stream whose content repeats.
    fn chunk_plan(&self, pass: usize) -> Vec<Chunk> {
        let c = CHUNK_BYTES;
        let base = |st: &crate::gen::Stream| if pass == 0 { 0 } else { st.header_len };
        let rounds = self
            .w
            .streams
            .iter()
            .map(|st| (st.bytes.len() - base(st)).div_ceil(c))
            .max()
            .unwrap_or(0);
        let mut plan = Vec::new();
        for round in 0..rounds {
            for (s, st) in self.w.streams.iter().enumerate() {
                let a = base(st) + round * c;
                if a >= st.bytes.len() {
                    continue;
                }
                let b = (a + c).min(st.bytes.len());
                let upto = pass * st.keyframes.len() + st.keyframes.partition_point(|k| k.end <= b);
                plan.push((s, a..b, upto));
            }
        }
        plan
    }

    fn send(&mut self, (s, range, upto): Chunk) -> f64 {
        let bytes = self.w.streams[s].bytes[range].to_vec();
        let len = bytes.len() as u64;
        let t = Instant::now();
        let res = self.client.send_chunk(s as u32, bytes);
        let us = t.elapsed().as_secs_f64() * 1e6;
        self.r.attempted += 1;
        match res {
            Ok(()) => {
                self.r.wire_bytes += len + self.frame_overhead;
                self.ops.push(Op::Chunk { stream: s, upto });
            }
            Err(e) => self.fail("send_chunk", &e),
        }
        us
    }

    /// A health round trip: it queues behind every chunk already sent, so
    /// its reply marks the engine catching up. Returns the wait in ms.
    fn barrier(&mut self, rec: Option<&mut Recorder>, name: &'static str) -> Option<f64> {
        self.r.attempted += 1;
        let t = Instant::now();
        let res = match rec {
            Some(rec) => {
                rec.enter(name, 0);
                let res = self.client.health();
                rec.exit();
                res
            }
            None => self.client.health(),
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match res {
            Ok(h) => {
                self.r.queue_depth_max = self.r.queue_depth_max.max(h.queue_depth);
                Some(ms)
            }
            Err(e) => {
                self.fail("health", &e);
                None
            }
        }
    }

    /// Closed loop: attach the streams for the flood passes.
    pub fn flood_begin(&mut self) -> bool {
        self.attach_all()
    }

    pub fn passes(&self) -> usize {
        self.passes
    }

    /// One closed-loop pass: every chunk as fast as the socket takes it,
    /// timed from the first chunk to the barrier after the last, on the
    /// CPU clocks of both processes and on the wall clock. With a
    /// recorder, every other pass is traced.
    pub fn flood_pass(&mut self, rec: Option<&mut Recorder>) {
        let pass = self.passes;
        let traced = rec.is_some() && pass % 2 == 1;
        let mut rec = rec.filter(|_| traced);
        let kf = self.w.keyframes();
        let host = self.host.get_or_insert_with(Tracker::new);
        host.restart();
        let client_cpu = CpuClock::this_process();
        let cpu0 = self.daemon.cpu_s() + client_cpu.seconds();
        let t0 = Instant::now();
        if let Some(rec) = rec.as_deref_mut() {
            rec.enter("serve.pass", pass as u64);
        }
        for (i, chunk) in self.chunk_plan(pass).into_iter().enumerate() {
            let us = if let Some(rec) = rec.as_deref_mut() {
                rec.enter("serve.send_chunk", ((pass as u64) << 32) | i as u64);
                let us = self.send(chunk);
                rec.exit();
                us
            } else {
                self.send(chunk)
            };
            self.r.send_chunk_us.push(us);
        }
        if let Some(ms) = self.barrier(rec.as_deref_mut(), "serve.end_ack") {
            self.r.end_ack_ms.push(ms);
        }
        if let Some(rec) = rec {
            rec.exit();
        }
        let busy = t0.elapsed().as_secs_f64();
        let busy_cpu = self.daemon.cpu_s() + client_cpu.seconds() - cpu0;
        let speed = self.host.as_mut().map_or(f64::NAN, Tracker::lap);
        let kfps = kf as f64 / busy_cpu / speed;
        if traced {
            self.r.traced_flood_kfps.push(kfps);
        } else {
            self.r.flood_kfps.push(kfps);
            self.r.speeds.push(speed);
            self.flood_busy_s += busy;
            self.r.flood_keyframes += kf;
        }
        self.r.wire_keyframes += kf;
        self.poll_detections();
        self.passes += 1;
    }

    /// End the flood's streams.
    pub fn flood_end(&mut self) {
        self.end_all(self.passes);
    }

    fn churn_step(&mut self, mut rec: Option<&mut Recorder>) {
        if self.w.churn.is_empty() {
            return;
        }
        let cells = self.w.churn[self.churn_cursor % self.w.churn.len()].clone();
        self.churn_cursor += 1;
        let id = self.next_query;
        self.next_query += 1;
        self.r.attempted += 1;
        if let Some(rec) = rec.as_deref_mut() {
            rec.enter("serve.subscribe", u64::from(id));
        }
        let t = Instant::now();
        let res = self.client.subscribe(id, cells.clone());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(rec) = rec {
            rec.exit();
        }
        match res {
            Ok(()) => {
                self.r.subscribe_ms.push(ms);
                self.ops.push(Op::Subscribe { id, cells });
                self.live_churn.push_back(id);
            }
            Err(e) => self.fail("subscribe", &e),
        }
        if self.live_churn.len() > CHURN_LIVE {
            let old = self.live_churn.pop_front().expect("non-empty");
            self.r.attempted += 1;
            match self.client.unsubscribe(old) {
                Ok(()) => {
                    self.ops.push(Op::Unsubscribe { id: old });
                }
                Err(e) => self.fail("unsubscribe", &e),
            }
        }
    }

    /// Open loop: passes on one set of attached streams with every chunk
    /// due at the offered rate; churn and health round trips interleave.
    pub fn open_loop(&mut self, seconds: f64, mut rec: Option<&mut Recorder>) {
        if !self.attach_all() {
            return;
        }
        let start = Instant::now();
        self.open_start = Some(start);
        let mut ol = OpenLoop::new(self.spec.offered_kfps);
        let churn_every = self.spec.open_churn_every_s.unwrap_or(f64::INFINITY);
        let mut next_churn = churn_every;
        let mut next_health = HEALTH_EVERY_S;
        let now_s = || start.elapsed().as_secs_f64();
        let mut pass = 0usize;
        while now_s() < seconds {
            for g in &self.globals {
                if let Some(att) = self.attached.get_mut(g) {
                    att.chunk_due_s.push(Vec::new());
                }
            }
            let mut completed: Vec<usize> = (0..self.w.streams.len())
                .map(|s| pass * self.w.streams[s].keyframes.len())
                .collect();
            for chunk in self.chunk_plan(pass) {
                let due = ol.next_due_s();
                loop {
                    self.poll_detections();
                    let t = now_s();
                    if t >= next_churn {
                        next_churn += churn_every;
                        self.churn_step(rec.as_deref_mut());
                    } else if t >= next_health {
                        next_health += HEALTH_EVERY_S;
                        if let Some(ms) = self.barrier(rec.as_deref_mut(), "serve.health") {
                            self.r.rtt_ms.push(ms);
                        }
                    } else if t >= due {
                        break;
                    } else {
                        // Sleep, never spin: the client shares the machine's
                        // cores with the daemon it is measuring.
                        std::thread::sleep(Duration::from_secs_f64((due - t).min(200e-6)));
                    }
                }
                let s = chunk.0;
                let due = ol.sent(now_s(), (chunk.2 - completed[s]) as u64);
                completed[s] = chunk.2;
                if let Some(att) = self.attached.get_mut(&self.globals[s]) {
                    if let Some(dues) = att.chunk_due_s.last_mut() {
                        dues.push(due);
                    }
                }
                self.send(chunk);
            }
            self.r.wire_keyframes += self.w.keyframes();
            pass += 1;
        }
        self.r.offered_kfps = ol.offered_kfps();
        self.r.achieved_kfps = ol.achieved_kfps(now_s());
        self.r.late_ms = ol.late_s.scaled(1e3);
        self.end_all(pass);
    }

    /// Wait until every detection the oracle expects has arrived (or a
    /// timeout), then a little longer for any the oracle does not expect.
    fn collect(&mut self, expected: usize, timeout: Duration) {
        let t = Instant::now();
        while self.received.len() < expected && t.elapsed() < timeout && !self.client.closed() {
            self.poll_detections();
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(20));
        self.poll_detections();
    }
}

/// Replay the operation log through an in-process serial `Fleet` that
/// starts from the same catalogue: the detections the daemon must send.
/// A stream's key frames repeat pass after pass with frame indices
/// continuing, as the daemon numbers them.
fn oracle(w: &Workload, ops: &[Op]) -> Vec<StreamDetection> {
    let cfg = inproc::config();
    let extractor = FeatureExtractor::new(FeatureConfig::default());
    let mut fleet = Fleet::new(cfg);
    for (id, cells) in w.catalogue.iter().enumerate() {
        fleet.subscribe(inproc::query(&cfg, id as u32, cells));
    }
    struct Open<'a> {
        global: u32,
        fs: FingerprintStream<'a>,
        pushed: usize,
    }
    let mut open: Vec<Option<Open<'_>>> = (0..w.streams.len()).map(|_| None).collect();
    let mut out = Vec::new();
    for op in ops {
        match op {
            Op::Attach { stream, global } => {
                fleet
                    .add_stream(*global)
                    .expect("oracle stream ids are fresh");
                let fs = FingerprintStream::new(&w.streams[*stream].bytes, extractor.clone())
                    .expect("stream parses");
                open[*stream] = Some(Open {
                    global: *global,
                    fs,
                    pushed: 0,
                });
            }
            Op::Chunk { stream, upto } => {
                let st = &w.streams[*stream];
                let o = open[*stream].as_mut().expect("chunk after attach");
                while o.pushed < *upto {
                    let pass = (o.pushed / st.keyframes.len()) as u64;
                    if pass > 0 && o.pushed.is_multiple_of(st.keyframes.len()) {
                        o.fs.reopen(&st.bytes).expect("stream reopens");
                    }
                    let (frame, cell) =
                        o.fs.next_fingerprint()
                            .expect("decodes")
                            .expect("key frame");
                    let frame = pass * st.frames + frame;
                    out.extend(
                        fleet
                            .push_keyframe(o.global, frame, cell)
                            .expect("attached"),
                    );
                    o.pushed += 1;
                }
            }
            Op::End { stream } => {
                let o = open[*stream].take().expect("end after attach");
                let (dets, _) = fleet.detach_stream(o.global).expect("attached");
                out.extend(dets);
            }
            Op::Subscribe { id, cells } => fleet.subscribe(inproc::query(&cfg, *id, cells)),
            Op::Unsubscribe { id } => {
                fleet.unsubscribe(*id);
            }
        }
    }
    out
}

/// Multiset difference size between two detection lists.
fn mismatches(mut got: Vec<DetKey>, mut want: Vec<DetKey>) -> u64 {
    got.sort_unstable();
    want.sort_unstable();
    let (mut i, mut j, mut diff) = (0, 0, 0u64);
    while i < got.len() || j < want.len() {
        match (got.get(i), want.get(j)) {
            (Some(a), Some(b)) if a == b => {
                i += 1;
                j += 1;
            }
            (Some(a), Some(b)) if a < b => {
                diff += 1;
                i += 1;
            }
            (Some(_), None) => {
                diff += 1;
                i += 1;
            }
            _ => {
                diff += 1;
                j += 1;
            }
        }
    }
    diff
}

/// Spawn, connect and subscribe the catalogue; the set-up time is
/// from spawning the process until the catalogue is live.
fn start(w: &Workload, socket: &Path) -> Result<(DaemonProc, Client, f64), String> {
    let t = Instant::now();
    let daemon = DaemonProc::spawn(socket).map_err(|e| format!("spawn daemon: {e}"))?;
    let client = Client::connect_unix(socket).map_err(|e| format!("connect: {e}"))?;
    client.hello(TENANT).map_err(|e| format!("hello: {e}"))?;
    for (id, cells) in w.catalogue.iter().enumerate() {
        client
            .subscribe(id as u32, cells.clone())
            .map_err(|e| format!("subscribe: {e}"))?;
    }
    Ok((daemon, client, t.elapsed().as_secs_f64()))
}

impl<'w> ServeRun<'w> {
    /// Spawn the daemon, connect and subscribe the catalogue, timed.
    pub fn start(
        spec: &'w WorkloadSpec,
        w: &'w Workload,
        socket: &Path,
    ) -> Result<ServeRun<'w>, String> {
        let mut r = ServeResult::default();
        let (daemon, client, secs) = start(w, socket)?;
        r.setup_s.push(secs);
        let frame_overhead = encode_request(&Request::StreamData {
            stream_id: 0,
            bytes: Vec::new(),
        })
        .len() as u64;
        Ok(ServeRun {
            w,
            spec,
            client,
            ops: Vec::new(),
            attached: BTreeMap::new(),
            globals: Vec::new(),
            received: Vec::new(),
            next_query: w.catalogue.len() as u32,
            live_churn: VecDeque::new(),
            churn_cursor: 0,
            open_start: None,
            r,
            frame_overhead,
            daemon,
            passes: 0,
            flood_busy_s: 0.0,
            host: None,
        })
    }

    /// Time one more set-up of a throwaway daemon on a spare socket, and
    /// drain it; returns its seconds.
    pub fn time_setup(&mut self) -> Result<f64, String> {
        let spare = self.daemon.socket.with_extension("setup");
        let (daemon, client, secs) = start(self.w, &spare)?;
        let clean = daemon.shutdown(&client, Duration::from_secs(10));
        client.close();
        if !clean {
            return Err("set-up daemon did not drain cleanly".into());
        }
        self.r.setup_s.push(secs);
        Ok(secs)
    }

    /// Check every detection against the serial-`Fleet` oracle, then
    /// drain and stop the daemon.
    pub fn finish(mut self) -> ServeResult {
        let want: Vec<DetKey> = oracle(self.w, &self.ops)
            .iter()
            .map(key_of_detection)
            .collect();
        self.collect(want.len(), Duration::from_secs(10));
        let got: Vec<DetKey> = self.received.iter().map(key_of_event).collect();
        let r = &mut self.r;
        r.expected = want.len() as u64;
        r.received = got.len() as u64;
        r.attempted += want.len() as u64;
        r.mismatches = mismatches(got, want);
        r.lagged = self.client.lagged_total();
        for (code, msg) in self.client.take_async_errors() {
            r.errors.push(format!("async {code:?}: {msg}"));
        }
        r.serve_kfps = median(&r.flood_kfps);
        r.traced_serve_kfps = median(&r.traced_flood_kfps);
        r.wall_serve_kfps = r.flood_keyframes as f64 / self.flood_busy_s;
        r.peak_rss_mb = self.daemon.peak_rss_mb();
        let ServeRun {
            client,
            daemon,
            mut r,
            ..
        } = self;
        r.clean_exit = daemon.shutdown(&client, Duration::from_secs(10));
        client.close();
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatches_count_the_multiset_difference() {
        let k = |stream: u32, sim: f64| (stream, 1, 10, 20, 2, sim.to_bits());
        assert_eq!(
            mismatches(vec![k(0, 0.8), k(1, 0.9)], vec![k(1, 0.9), k(0, 0.8)]),
            0
        );
        // One similarity bit apart: a missing and an unexpected detection.
        assert_eq!(
            mismatches(
                vec![k(0, 0.8)],
                vec![k(0, f64::from_bits(0.8f64.to_bits() + 1))]
            ),
            2
        );
        // Duplicates must match in number.
        assert_eq!(mismatches(vec![k(0, 0.8), k(0, 0.8)], vec![k(0, 0.8)]), 1);
        assert_eq!(mismatches(vec![], vec![k(3, 0.7)]), 1);
    }
}
