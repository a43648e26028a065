//! Seeded workload generation, on the benchmark side and never timed.
//!
//! A workload is eight encoded broadcast streams with planted airings of
//! catalogue clips, the catalogue itself as raw cell ids (planted clips
//! plus decoys drawn from the streams' own cell vocabulary), the planted
//! ground truth, and a walk of every stream's frame records giving each
//! key frame's byte offset — which the serve phases need to know which
//! chunk carries which key frame. The system under test only ever sees
//! the encoded bytes and the cell-id lists.

use vdsms_codec::bitio::ByteReader;
use vdsms_codec::bitstream::FrameRecord;
use vdsms_codec::{Encoder, EncoderConfig, FrameType, StreamHeader};
use vdsms_features::{FeatureConfig, FeatureExtractor, FingerprintStream};
use vdsms_video::source::{ClipGenerator, SourceSpec};
use vdsms_video::{Clip, Fps};

use crate::workloads::{WorkloadSpec, CHURN_QUERIES, DECOY_CELLS, STREAMS};

/// Frames per second of every generated clip.
pub const FPS: u32 = 10;

/// SplitMix64: a small, seedable, platform-independent generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One key frame of a stream: its stream frame index and the byte offset
/// one past its record (the point from which a chunked reader can
/// ingest it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyFrame {
    pub frame_index: u64,
    pub end: usize,
}

/// One planted airing: catalogue query `query` occupies stream frames
/// `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Airing {
    pub query: u32,
    pub start: u64,
    pub end: u64,
}

impl Airing {
    /// The paper's rule: a detection at position `p` is correct iff
    /// `start + w <= p <= end - 1 + w`, with `w` the basic window in frames.
    pub fn accepts(&self, p: u64, w_frames: u64) -> bool {
        p >= self.start + w_frames && p < self.end + w_frames
    }
}

/// One encoded broadcast stream.
#[derive(Debug, Clone)]
pub struct Stream {
    pub bytes: Vec<u8>,
    /// Length of the stream header that precedes the first record.
    pub header_len: usize,
    pub keyframes: Vec<KeyFrame>,
    /// Frame records in the stream (key and predicted).
    pub frames: u64,
    pub airings: Vec<Airing>,
    /// The stream's key-frame cell ids, in order (for input properties).
    pub cells: Vec<u64>,
}

/// A generated workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub streams: Vec<Stream>,
    /// Catalogue queries as raw cell ids; query `i` has id `i`. Planted
    /// queries come first, then decoys.
    pub catalogue: Vec<Vec<u64>>,
    /// Number of planted (airable) queries at the front of `catalogue`.
    pub planted: usize,
    /// Extra decoy queries for subscribe/unsubscribe churn.
    pub churn: Vec<Vec<u64>>,
}

impl Workload {
    pub fn keyframes(&self) -> u64 {
        self.streams.iter().map(|s| s.keyframes.len() as u64).sum()
    }

    pub fn bytes(&self) -> u64 {
        self.streams.iter().map(|s| s.bytes.len() as u64).sum()
    }
}

fn fps() -> Fps {
    Fps::integer(FPS)
}

fn source(spec: &WorkloadSpec, seed: u64) -> SourceSpec {
    SourceSpec {
        width: spec.width,
        height: spec.height,
        fps: fps(),
        seed,
        min_scene_s: spec.min_scene_s,
        max_scene_s: spec.max_scene_s,
        motifs: None,
    }
}

/// Whole GOPs covering about `seconds` of video.
fn gop_frames(spec: &WorkloadSpec, seconds: f64) -> usize {
    let frames = (seconds * f64::from(FPS)).round() as usize;
    let gop = spec.gop as usize;
    (frames / gop).max(1) * gop
}

fn encoder(spec: &WorkloadSpec) -> EncoderConfig {
    EncoderConfig {
        gop: spec.gop,
        quality: 80,
        motion_search: false,
    }
}

/// Fingerprint a whole bitstream through the fused front end.
pub fn fingerprint(bytes: &[u8]) -> Vec<u64> {
    let mut fs = FingerprintStream::new(bytes, FeatureExtractor::new(FeatureConfig::default()))
        .expect("generated stream parses");
    let mut cells = Vec::new();
    while let Some((_, cell)) = fs.next_fingerprint().expect("generated stream decodes") {
        cells.push(cell);
    }
    cells
}

/// Walk a bitstream's frame records: the header length, every key
/// frame's index and the byte offset one past its record, and the total
/// frame count.
pub fn walk_records(bytes: &[u8]) -> (usize, Vec<KeyFrame>, u64) {
    let mut r = ByteReader::new(bytes);
    StreamHeader::read(&mut r).expect("generated stream has a header");
    let header_len = r.position();
    let mut keyframes = Vec::new();
    let mut frames = 0u64;
    while !r.is_at_end() {
        let rec = FrameRecord::read(&mut r).expect("generated record parses");
        r.skip(rec.payload_len as usize)
            .expect("generated record is complete");
        if rec.frame_type == FrameType::Intra {
            keyframes.push(KeyFrame {
                frame_index: frames,
                end: r.position(),
            });
        }
        frames += 1;
    }
    (header_len, keyframes, frames)
}

/// One stream's layout: its background source seed and, in order,
/// background runs (frame counts) each followed by an airing (query index).
struct Layout {
    seed: u64,
    backgrounds: Vec<usize>,
    airings: Vec<usize>,
}

/// Render and encode one stream frame by frame (no whole-clip buffer).
fn render_stream(spec: &WorkloadSpec, layout: &Layout, queries: &[Clip]) -> Stream {
    let mut gen = ClipGenerator::new(source(spec, layout.seed));
    let mut enc = Encoder::new(spec.width, spec.height, fps(), encoder(spec));
    let mut frames = 0u64;
    let mut airings = Vec::new();
    for (i, &bg) in layout.backgrounds.iter().enumerate() {
        for f in gen.by_ref().take(bg) {
            enc.push(&f);
        }
        frames += bg as u64;
        if let Some(&q) = layout.airings.get(i) {
            for f in queries[q].frames() {
                enc.push(f);
            }
            let len = queries[q].len() as u64;
            airings.push(Airing {
                query: q as u32,
                start: frames,
                end: frames + len,
            });
            frames += len;
        }
    }
    let bytes = enc.finish();
    let (header_len, keyframes, frames) = walk_records(&bytes);
    let cells = fingerprint(&bytes);
    assert_eq!(
        cells.len(),
        keyframes.len(),
        "record walk and decoder agree on key frames"
    );
    Stream {
        bytes,
        header_len,
        keyframes,
        frames,
        airings,
        cells,
    }
}

/// Generate a workload from its spec and a seed. The same seed gives the
/// same bytes, catalogue and truth. Query clips and streams render on
/// two threads.
pub fn generate(spec: &WorkloadSpec, seed: u64) -> Workload {
    let mut rng = Rng::new(seed ^ spec.salt);
    let query_seeds: Vec<u64> = (0..spec.planted_queries).map(|_| rng.next_u64()).collect();
    let frames = gop_frames(spec, spec.query_seconds);
    let render_query = |seed: &u64| {
        Clip::new(
            ClipGenerator::new(source(spec, *seed))
                .take(frames)
                .collect(),
            fps(),
        )
    };
    let query_clips: Vec<Clip> = std::thread::scope(|scope| {
        let (first, second) = query_seeds.split_at(query_seeds.len() / 2);
        let render = &render_query;
        let other = scope.spawn(move || second.iter().map(render).collect::<Vec<_>>());
        let mut clips: Vec<Clip> = first.iter().map(render).collect();
        clips.extend(other.join().expect("render thread"));
        clips
    });
    let layouts: Vec<Layout> = (0..STREAMS)
        .map(|_| {
            let seed = rng.next_u64();
            let backgrounds = (0..=spec.airings_per_stream)
                .map(|_| gop_frames(spec, rng.range_f64(spec.gap_s.0, spec.gap_s.1)))
                .collect();
            let airings = (0..spec.airings_per_stream)
                .map(|_| rng.below(u64::from(spec.planted_queries)) as usize)
                .collect();
            Layout {
                seed,
                backgrounds,
                airings,
            }
        })
        .collect();

    let (mut catalogue, streams) = std::thread::scope(|scope| {
        let half = layouts.len() / 2;
        let (first, second) = layouts.split_at(half);
        let clips = &query_clips;
        let other = scope.spawn(move || {
            second
                .iter()
                .map(|l| render_stream(spec, l, clips))
                .collect::<Vec<_>>()
        });
        let catalogue: Vec<Vec<u64>> = clips
            .iter()
            .map(|c| fingerprint(&Encoder::encode_clip(c, encoder(spec))))
            .collect();
        let mut streams: Vec<Stream> = first
            .iter()
            .map(|l| render_stream(spec, l, clips))
            .collect();
        streams.extend(other.join().expect("render thread"));
        (catalogue, streams)
    });

    // Decoys: cell sets drawn from the streams' own vocabulary, so the
    // index relates them to live windows without any of them matching.
    let mut vocabulary: Vec<u64> = streams
        .iter()
        .flat_map(|s| s.cells.iter().copied())
        .collect();
    vocabulary.sort_unstable();
    vocabulary.dedup();
    let decoy = |rng: &mut Rng| -> Vec<u64> {
        (0..DECOY_CELLS)
            .map(|i| {
                if i < spec.decoy_vocab_cells {
                    vocabulary[rng.below(vocabulary.len() as u64) as usize]
                } else {
                    rng.next_u64()
                }
            })
            .collect()
    };
    let planted = catalogue.len();
    for _ in 0..spec.decoys {
        catalogue.push(decoy(&mut rng));
    }
    let churn = (0..CHURN_QUERIES).map(|_| decoy(&mut rng)).collect();
    Workload {
        streams,
        catalogue,
        planted,
        churn,
    }
}

/// Share of key frames whose cell id equals the previous key frame's on
/// the same stream: what a cell-id cache or an exact-hash tier can reuse.
pub fn cell_repeat_ratio(w: &Workload) -> (u64, u64) {
    let mut repeats = 0u64;
    let mut pairs = 0u64;
    for s in &w.streams {
        for pair in s.cells.windows(2) {
            pairs += 1;
            repeats += u64::from(pair[0] == pair[1]);
        }
    }
    (repeats, pairs)
}
