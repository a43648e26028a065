//! The three workloads: what each generates and the ranges its input
//! properties must stay in for it to exercise the layers it is chosen for.

/// Inclusive range a workload property must fall in.
pub type Range = (f64, f64);

/// Broadcast streams per workload.
pub const STREAMS: usize = 8;
/// Cells per decoy query.
pub const DECOY_CELLS: usize = 40;
/// Decoy queries set aside for subscribe/unsubscribe churn.
pub const CHURN_QUERIES: usize = 64;
/// Bytes per `StreamData` chunk sent to the daemon.
pub const CHUNK_BYTES: usize = 16 * 1024;

#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// Mixed into the seed so workloads with one seed differ.
    pub salt: u64,
    pub width: u32,
    pub height: u32,
    pub min_scene_s: f64,
    pub max_scene_s: f64,
    pub gop: u32,
    /// Catalogue clips that are aired in the streams.
    pub planted_queries: u32,
    pub query_seconds: f64,
    pub airings_per_stream: u32,
    /// Background between airings, seconds (min, max).
    pub gap_s: (f64, f64),
    /// Catalogue queries drawn from the stream vocabulary (never aired).
    pub decoys: u32,
    /// Of a decoy's [`DECOY_CELLS`] cells, how many come from the stream
    /// vocabulary (the rest are fresh ids no stream contains).
    pub decoy_vocab_cells: usize,
    /// In-process churn: one subscribe and one unsubscribe every this
    /// many ingested key frames.
    pub churn_every_kf: u64,
    /// Open-loop offered key-frame rate through the daemon.
    pub offered_kfps: f64,
    /// Open loop: one subscribe/unsubscribe pair every this many
    /// seconds, or none.
    pub open_churn_every_s: Option<f64>,
    /// Share of `--seconds` spent in each measured phase.
    pub ingest_share: f64,
    pub flood_share: f64,
    pub open_share: f64,
    /// Ranges for the workload-property self-check.
    pub cell_repeat: Range,
    pub related_per_window: Range,
    pub bytes_per_kf: Range,
}

pub const FRONTEND_HEAVY: WorkloadSpec = WorkloadSpec {
    name: "frontend_heavy",
    salt: 0x0f0e_0001,
    width: 352,
    height: 240,
    min_scene_s: 6.0,
    max_scene_s: 14.0,
    gop: 2,
    planted_queries: 16,
    query_seconds: 16.0,
    airings_per_stream: 2,
    gap_s: (2.0, 4.0),
    decoys: 0,
    decoy_vocab_cells: 4,
    churn_every_kf: 1_000,
    offered_kfps: 4_000.0,
    open_churn_every_s: None,
    ingest_share: 0.5,
    flood_share: 0.25,
    open_share: 0.25,
    cell_repeat: (0.6, 1.0),
    related_per_window: (0.01, 4.0),
    bytes_per_kf: (4_000.0, 40_000.0),
};

pub const CATALOGUE_CHURN: WorkloadSpec = WorkloadSpec {
    name: "catalogue_churn",
    salt: 0x0c4a_0002,
    width: 176,
    height: 120,
    min_scene_s: 0.5,
    max_scene_s: 1.5,
    gop: 5,
    planted_queries: 8,
    query_seconds: 20.0,
    airings_per_stream: 1,
    gap_s: (8.0, 16.0),
    decoys: 500,
    decoy_vocab_cells: 2,
    churn_every_kf: 300,
    offered_kfps: 3_000.0,
    open_churn_every_s: None,
    ingest_share: 0.55,
    flood_share: 0.25,
    open_share: 0.2,
    cell_repeat: (0.0, 0.5),
    related_per_window: (10.0, 120.0),
    bytes_per_kf: (2_000.0, 30_000.0),
};

pub const SERVE_LIVE: WorkloadSpec = WorkloadSpec {
    name: "serve_live",
    salt: 0x05e7_0003,
    width: 176,
    height: 120,
    min_scene_s: 2.0,
    max_scene_s: 6.0,
    gop: 5,
    planted_queries: 8,
    query_seconds: 20.0,
    airings_per_stream: 2,
    gap_s: (6.0, 10.0),
    decoys: 56,
    decoy_vocab_cells: 4,
    churn_every_kf: 1_000,
    offered_kfps: 6_000.0,
    open_churn_every_s: Some(0.03),
    ingest_share: 0.45,
    flood_share: 0.25,
    open_share: 0.3,
    cell_repeat: (0.3, 0.95),
    related_per_window: (0.05, 64.0),
    bytes_per_kf: (2_000.0, 30_000.0),
};

pub const ALL: [&WorkloadSpec; 3] = [&FRONTEND_HEAVY, &CATALOGUE_CHURN, &SERVE_LIVE];

pub fn by_name(name: &str) -> Option<&'static WorkloadSpec> {
    ALL.into_iter().find(|w| w.name == name)
}
