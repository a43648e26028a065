//! The in-process phase: set-up, closed-loop ingest from compressed bytes
//! to detections through a serial `Fleet`, and subscribe/unsubscribe
//! churn beside it.
//!
//! The untraced path is the fused `FingerprintStream::next_fingerprint`
//! the CLI runs. In a traced run every other epoch takes the split path —
//! `PartialDecoder::next_dc_frame_into`, then
//! `FeatureExtractor::fingerprint_into`, then `Fleet::push_keyframe` —
//! with a span around each call, so per-layer times come from the same
//! run that measures the tracing overhead.

use std::time::Instant;

use vdsms_codec::{DcFrame, PartialDecoder};
use vdsms_core::{Detector, DetectorConfig, Fleet, Query, Stats};
use vdsms_features::{FeatureConfig, FeatureExtractor, FingerprintScratch, FingerprintStream};

use crate::gen::Workload;
use crate::hostspeed::Tracker;
use crate::score::Score;
use crate::stats::{median, CpuClock, Samples};
use crate::trace::Recorder;
use crate::workloads::WorkloadSpec;

/// Set-ups timed back to back, the last one kept. Most are timed later
/// by [`time_setup`], spread over the flood phase once the in-process
/// phase is over, so none runs beside the measured fleet and a burst of
/// back-to-back set-ups (cache-warm, one host state) does not dominate
/// their median.
const SETUP_REPS: usize = 3;

#[derive(Debug, Default)]
pub struct InprocResult {
    /// CPU seconds of each set-up at the host's nominal speed.
    pub setup_s: Vec<f64>,
    /// Key frames per CPU second of each untraced and each traced epoch
    /// (churn excluded), at the host's nominal speed.
    pub kfps: Vec<f64>,
    pub traced_kfps: Vec<f64>,
    /// Host speed over each untraced epoch (see `hostspeed`).
    pub speeds: Vec<f64>,
    /// The medians of those.
    pub ingest_kfps: f64,
    pub traced_ingest_kfps: f64,
    /// Key frames over wall-clock busy seconds of all untraced epochs.
    pub wall_kfps: f64,
    pub keyframes: u64,
    pub traced_keyframes: u64,
    pub subscribe_ms: Samples,
    pub unsubscribe_ms: Samples,
    /// Traced: `push_keyframe` calls that closed a window (µs) and that
    /// did not (ns).
    pub window_us: Samples,
    pub frame_ns: Samples,
    pub score: Score,
    pub stats: Stats,
    pub catalogue_queries: usize,
    pub attempted: u64,
    pub failed: u64,
}

/// Time one set-up of a throwaway system; returns its seconds as
/// [`timed_setup`] gives them.
pub fn time_setup(w: &Workload, host: &mut Tracker) -> f64 {
    let extractor = FeatureExtractor::new(FeatureConfig::default());
    let (system, secs) = timed_setup(w, config(), &extractor, host);
    drop(system);
    secs
}

/// One set-up, and its CPU seconds at the host's nominal speed: set-up
/// is single-threaded work, timed like an ingest epoch between two
/// reference computations (see `hostspeed`).
fn timed_setup<'a>(
    w: &'a Workload,
    cfg: DetectorConfig,
    extractor: &FeatureExtractor,
    host: &mut Tracker,
) -> (System<'a>, f64) {
    let cpu = CpuClock::this_thread();
    host.restart();
    let t = cpu.seconds();
    let system = setup(w, cfg, extractor);
    let secs = cpu.seconds() - t;
    (system, secs * host.lap())
}

pub fn config() -> DetectorConfig {
    DetectorConfig::default()
}

/// A catalogue query with id `id` sketched from its cells.
pub fn query(cfg: &DetectorConfig, id: u32, cells: &[u64]) -> Query {
    Query::from_cell_ids(id, &Detector::family_for(cfg), cells)
}

struct System<'a> {
    fleet: Fleet,
    fused: Vec<FingerprintStream<'a>>,
}

/// Everything from an empty process to a fleet that can take its first
/// key frame: catalogue sketching, subscribes, stream registration and
/// opening the ingest front ends.
fn setup<'a>(w: &'a Workload, cfg: DetectorConfig, extractor: &FeatureExtractor) -> System<'a> {
    let mut fleet = Fleet::new(cfg);
    for s in 0..w.streams.len() {
        fleet.add_stream(s as u32).expect("fresh stream id");
    }
    let family = Detector::family_for(&cfg);
    for (id, cells) in w.catalogue.iter().enumerate() {
        fleet.subscribe(Query::from_cell_ids(id as u32, &family, cells));
    }
    let fused = w
        .streams
        .iter()
        .map(|s| FingerprintStream::new(&s.bytes, extractor.clone()).expect("stream parses"))
        .collect();
    System { fleet, fused }
}

/// Frame-index stride between epochs: the longest stream, rounded up.
fn epoch_stride(w: &Workload) -> u64 {
    let longest = w.streams.iter().map(|s| s.frames).max().unwrap_or(0);
    (longest / 1000 + 1) * 1000
}

/// The in-process system under test, between set-up and the last epoch.
pub struct Inproc<'w> {
    spec: &'w WorkloadSpec,
    w: &'w Workload,
    cfg: DetectorConfig,
    extractor: FeatureExtractor,
    system: System<'w>,
    /// The split path for traced epochs.
    decoders: Vec<PartialDecoder<'w>>,
    dc: DcFrame,
    scratch: FingerprintScratch,
    next_id: u32,
    live_churn: std::collections::VecDeque<u32>,
    churn_cursor: usize,
    since_churn: u64,
    per_stream: Vec<Vec<(u32, u64)>>,
    epoch: u64,
    /// Wall-clock seconds spent ingesting in untraced epochs, churn excluded.
    busy_s: f64,
    host: Tracker,
    r: InprocResult,
}

impl<'w> Inproc<'w> {
    /// Set the system up repeatedly, timing each set-up, and keep the last.
    /// The process's peak-RSS mark is reset first, so a later reading
    /// covers the fleet and not the generator.
    pub fn setup(spec: &'w WorkloadSpec, w: &'w Workload) -> Inproc<'w> {
        let cfg = config();
        let extractor = FeatureExtractor::new(FeatureConfig::default());
        let mut r = InprocResult::default();
        let mut host = Tracker::new();
        crate::stats::release_free_memory();
        crate::stats::reset_peak_rss();

        let system = loop {
            let (sys, secs) = timed_setup(w, cfg, &extractor, &mut host);
            r.setup_s.push(secs);
            if r.setup_s.len() >= SETUP_REPS {
                break sys;
            }
        };
        r.catalogue_queries = system.fleet.query_count();
        let decoders = w
            .streams
            .iter()
            .map(|s| PartialDecoder::new(&s.bytes).expect("stream parses"))
            .collect();
        let scratch = extractor.scratch();
        Inproc {
            spec,
            w,
            cfg,
            extractor,
            system,
            decoders,
            dc: DcFrame::empty(),
            scratch,
            next_id: w.catalogue.len() as u32,
            live_churn: Default::default(),
            churn_cursor: 0,
            since_churn: 0,
            per_stream: vec![Vec::new(); w.streams.len()],
            epoch: 0,
            busy_s: 0.0,
            host,
            r,
        }
    }

    pub fn epochs(&self) -> u64 {
        self.epoch
    }

    /// One epoch: every stream from its start (less a skip) to its end,
    /// with churn every `churn_every_kf` key frames. With a recorder,
    /// every other epoch takes the traced split path.
    pub fn epoch(&mut self, mut rec: Option<&mut Recorder>) {
        let (w, cfg) = (self.w, self.cfg);
        let traced = rec.is_some() && self.epoch % 2 == 1;
        let offset = self.epoch * epoch_stride(w);
        // Each epoch starts its streams a different number of key frames
        // in, so over the run every airing meets every basic-window
        // alignment and recall is their average, not one alignment's luck.
        let skip = self.epoch % cfg.window_keyframes as u64;
        for (s, bytes) in w.streams.iter().map(|s| &s.bytes).enumerate() {
            if traced {
                self.decoders[s]
                    .reopen(bytes, false)
                    .expect("stream reopens");
                for _ in 0..skip {
                    self.decoders[s]
                        .next_dc_frame_into(&mut self.dc)
                        .expect("stream decodes");
                }
            } else {
                self.system.fused[s].reopen(bytes).expect("stream reopens");
                for _ in 0..skip {
                    self.system.fused[s]
                        .next_fingerprint()
                        .expect("stream decodes");
                }
            }
        }
        let r = &mut self.r;
        let mut kf = 0u64;
        let mut churn_s = 0.0f64;
        let mut churn_cpu_s = 0.0f64;
        let cpu = CpuClock::this_thread();
        let t0 = Instant::now();
        let c0 = cpu.seconds();
        loop {
            let mut any = false;
            for s in 0..w.streams.len() {
                let sid = s as u32;
                let fleet = &mut self.system.fleet;
                let dets = if let (true, Some(rec)) = (traced, rec.as_deref_mut()) {
                    let req = (u64::from(sid) << 40) | (offset + kf);
                    rec.enter("ingest.keyframe", req);
                    rec.enter("codec.decode", req);
                    let more = self.decoders[s]
                        .next_dc_frame_into(&mut self.dc)
                        .expect("stream decodes");
                    rec.exit();
                    if !more {
                        rec.exit();
                        continue;
                    }
                    rec.enter("features.fingerprint", req);
                    let cell = self.extractor.fingerprint_into(&mut self.scratch, &self.dc);
                    rec.exit();
                    let windows = fleet.stats(sid).map_or(0, |st| st.windows);
                    rec.enter("detector.push", req);
                    let dets = fleet.push_keyframe(sid, offset + self.dc.frame_index, cell);
                    let ns = rec.exit() as f64;
                    rec.exit();
                    if fleet.stats(sid).map_or(0, |st| st.windows) > windows {
                        r.window_us.push(ns / 1e3);
                    } else {
                        r.frame_ns.push(ns);
                    }
                    dets
                } else {
                    let Some((frame, cell)) = self.system.fused[s]
                        .next_fingerprint()
                        .expect("stream decodes")
                    else {
                        continue;
                    };
                    fleet.push_keyframe(sid, offset + frame, cell)
                };
                any = true;
                kf += 1;
                r.attempted += 1;
                match dets {
                    Ok(dets) => {
                        for d in dets {
                            self.per_stream[s]
                                .push((d.detection.query_id, d.detection.position() - offset));
                        }
                    }
                    Err(_) => r.failed += 1,
                }
                self.since_churn += 1;
                if self.since_churn >= self.spec.churn_every_kf && !w.churn.is_empty() {
                    self.since_churn = 0;
                    let tc = Instant::now();
                    let cc = cpu.seconds();
                    churn(
                        fleet,
                        &cfg,
                        w,
                        &mut self.next_id,
                        &mut self.churn_cursor,
                        &mut self.live_churn,
                        r,
                        rec.as_deref_mut().filter(|_| traced),
                    );
                    churn_cpu_s += cpu.seconds() - cc;
                    churn_s += tc.elapsed().as_secs_f64();
                }
            }
            if !any {
                break;
            }
        }
        let busy_cpu = cpu.seconds() - c0 - churn_cpu_s;
        let busy = t0.elapsed().as_secs_f64() - churn_s;
        let speed = self.host.lap();
        let kfps = kf as f64 / busy_cpu / speed;
        if traced {
            r.traced_keyframes += kf;
            r.traced_kfps.push(kfps);
        } else {
            r.kfps.push(kfps);
            r.speeds.push(speed);
            r.keyframes += kf;
            self.busy_s += busy;
        }
        let w_frames = (cfg.window_keyframes as u64) * u64::from(self.spec.gop);
        for (s, dets) in self.per_stream.iter_mut().enumerate() {
            r.score.add_pass(&w.streams[s].airings, dets, w_frames);
            dets.clear();
        }
        self.epoch += 1;
    }

    pub fn finish(self) -> InprocResult {
        let mut r = self.r;
        r.stats = self.system.fleet.total_stats();
        r.ingest_kfps = median(&r.kfps);
        r.traced_ingest_kfps = median(&r.traced_kfps);
        r.wall_kfps = r.keyframes as f64 / self.busy_s;
        r
    }
}

/// One churn step: subscribe the next churn query under a fresh id and,
/// once a few are live, unsubscribe the oldest.
#[allow(clippy::too_many_arguments)]
fn churn(
    fleet: &mut Fleet,
    cfg: &DetectorConfig,
    w: &Workload,
    next_id: &mut u32,
    cursor: &mut usize,
    live: &mut std::collections::VecDeque<u32>,
    r: &mut InprocResult,
    mut rec: Option<&mut Recorder>,
) {
    const LIVE: usize = 4;
    let cells = &w.churn[*cursor % w.churn.len()];
    *cursor += 1;
    let id = *next_id;
    *next_id += 1;
    let q = query(cfg, id, cells);
    if let Some(rec) = rec.as_deref_mut() {
        rec.enter("fleet.subscribe", u64::from(id));
    }
    let t = Instant::now();
    fleet.subscribe(q);
    r.subscribe_ms.push(t.elapsed().as_secs_f64() * 1e3);
    if let Some(rec) = rec.as_deref_mut() {
        rec.exit();
    }
    r.attempted += 1;
    live.push_back(id);
    if live.len() > LIVE {
        let old = live.pop_front().expect("non-empty");
        if let Some(rec) = rec.as_deref_mut() {
            rec.enter("fleet.unsubscribe", u64::from(old));
        }
        let t = Instant::now();
        let ok = fleet.unsubscribe(old);
        r.unsubscribe_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(rec) = rec {
            rec.exit();
        }
        r.attempted += 1;
        r.failed += u64::from(!ok);
    }
}
