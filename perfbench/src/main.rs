//! `perfbench`: one benchmark for the vdsms copy detector.
//!
//! ```text
//! perfbench --workload <frontend_heavy|catalogue_churn|serve_live> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs the same three measured phases on its own
//! generated content: in-process ingest with catalogue churn, a
//! closed-loop flood through the serve daemon, and an open loop through
//! the daemon at a fixed offered rate. With `--trace 0` the last line of
//! standard output carries the end-to-end metrics; with `--trace 1` it
//! carries the per-layer metrics of a traced run. Any correctness
//! failure or workload-property violation exits with code 1.

mod gen;
mod hostspeed;
mod inproc;
mod openloop;
mod score;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Instant;

use stats::{median, Ratio, Samples};
use workloads::WorkloadSpec;

/// Where run artefacts (the daemon socket, span dumps) go, relative to
/// the working directory.
const OUT_DIR: &str = ".bench_out";
/// Spans kept in memory per run; later spans are only aggregated.
const SPAN_CAP: usize = 1 << 18;
/// Share of the flood time spent timing extra set-ups of a throwaway
/// system (the daemon on `serve_live`, the in-process fleet elsewhere),
/// one at a time between passes, so that `setup_s`, their median,
/// samples the host over seconds and not over one burst. The host's
/// speed drifts over seconds: back-to-back set-ups of one run agreed
/// within a few percent while runs differed by half.
const SETUP_SHARE: f64 = 0.1;
/// Open loop: achieved over offered key-frame rate must stay in this range.
const RATE_RANGE: (f64, f64) = (0.9, 1.1);
/// Open loop: the generator's p95 lateness must stay below this, ms. It
/// catches a generator that cannot keep its schedule; a host pause of a
/// fraction of a second (seen on shared machines) stays inside it.
const MAX_LATE_P95_MS: f64 = 250.0;
/// Correctness floor: share of planted airings found, and of detections
/// that are correct. Basic windows that straddle an airing's edges cost
/// the detector some recall on short airings, so this is a sanity floor,
/// not a quality target; the reported recall and precision carry that.
const MIN_RECALL: f64 = 0.5;
const MIN_PRECISION: f64 = 0.8;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("missing or non-positive --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    stats::pin_heap();
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("daemon") {
        let socket = args.nth(2).expect("daemon --socket <path>");
        if let Err(e) = serve::daemon_main(Path::new(&socket)) {
            eprintln!("daemon: {e}");
            std::process::exit(2);
        }
        return;
    }
    let args = match parse_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(spec) = workloads::by_name(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    match run(spec, &args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// How it was obtained: sample count, base of a ratio.
    detail: String,
    /// Printed in the report but left out of the final line.
    report_only: bool,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    checks: Vec<(String, bool)>,
}

impl Report {
    fn metric(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        detail: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            detail: detail.into(),
            report_only: false,
        });
    }

    fn ratio(&mut self, name: &'static str, r: Ratio, unit: &'static str) {
        self.metric(name, r.value(), unit, r.describe());
    }

    /// A distribution's percentile; missing (so the run fails) when the
    /// percentile does not have ten samples beyond it.
    fn pct(&mut self, name: &'static str, s: &mut Samples, p: f64, unit: &'static str) {
        let detail = s.describe();
        match s.tail(p) {
            Some(v) => self.metric(name, v, unit, detail),
            None => self.check(
                format!("{name}: p{p} needs ten samples beyond it ({detail})"),
                false,
            ),
        }
    }

    /// Like [`Report::pct`], but only printed: a latency whose run-to-run
    /// spread on a shared machine is too wide to gate on. A thin
    /// distribution is noted instead of failing the run.
    fn pct_report_only(&mut self, name: &'static str, s: &mut Samples, p: f64, unit: &'static str) {
        match s.tail(p) {
            Some(v) => {
                let detail = s.describe();
                self.metrics.push(Metric {
                    name,
                    value: v,
                    unit,
                    detail,
                    report_only: true,
                });
            }
            None => println!(
                "note {name}: p{p} not reported, fewer than ten samples beyond it ({})",
                s.describe()
            ),
        }
    }

    fn check(&mut self, what: String, ok: bool) {
        self.checks.push((what, ok));
    }

    fn range(&mut self, name: &str, value: f64, (lo, hi): (f64, f64)) {
        self.check(
            format!("{name} = {value:.4} in [{lo}, {hi}]"),
            value >= lo && value <= hi,
        );
    }
}

fn run(spec: &'static WorkloadSpec, args: &Args) -> Result<bool, String> {
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let t = Instant::now();
    let w = gen::generate(spec, args.seed);
    println!(
        "generated {} streams, {} key frames, {} bytes, catalogue {} ({} planted), in {:.2} s (untimed)",
        w.streams.len(),
        w.keyframes(),
        w.bytes(),
        w.catalogue.len(),
        w.planted,
        t.elapsed().as_secs_f64()
    );

    // Generation used two threads; everything measured runs on one core.
    match stats::pin_to_one_core() {
        Some(c) => println!("pinned to core {c}; the daemon inherits it"),
        None => println!("could not pin to one core; running unpinned"),
    }

    let mut rec = args.trace.then(|| trace::Recorder::new(SPAN_CAP));
    let mut report = Report::default();

    // Input properties of the generated content.
    let (repeats, pairs) = gen::cell_repeat_ratio(&w);
    let repeat = Ratio::new(repeats as f64, pairs as f64);
    let bytes_per_kf = Ratio::new(w.bytes() as f64, w.keyframes() as f64);
    report.range(
        "features.cell_repeat_ratio",
        repeat.value(),
        spec.cell_repeat,
    );
    report.range(
        "codec.bytes_per_kf",
        bytes_per_kf.value(),
        spec.bytes_per_kf,
    );
    let want_catalogue = (spec.planted_queries + spec.decoys) as usize;
    report.check(
        format!("catalogue size {} == {want_catalogue}", w.catalogue.len()),
        w.catalogue.len() == want_catalogue,
    );

    // `serve_live` takes its set-up time and peak RSS from the daemon,
    // the other workloads from the in-process fleet; only it churns the
    // catalogue over the wire.
    let serve_live = spec.name == workloads::SERVE_LIVE.name;
    let mut ip = inproc::Inproc::setup(spec, &w);
    let t = Instant::now();
    // The in-process phase runs alone, before the daemon starts: taking
    // turns with flood passes (under glibc's default heap settings), its
    // subscribes ran four times and its ingest a quarter slower.
    while t.elapsed().as_secs_f64() < args.seconds * spec.ingest_share || ip.epochs() < 2 {
        ip.epoch(rec.as_mut());
    }
    let inproc_rss = stats::peak_rss_mb("self");
    let mut ip = ip.finish();
    let socket = out_dir.join(format!("d{}.sock", std::process::id()));
    let mut session = serve::ServeRun::start(spec, &w, &socket)?;
    let mut host = hostspeed::Tracker::new();
    if session.flood_begin() {
        let t = Instant::now();
        let mut setup_spent = 0.0;
        while t.elapsed().as_secs_f64() < args.seconds * spec.flood_share || session.passes() < 4 {
            session.flood_pass(rec.as_mut());
            if setup_spent < SETUP_SHARE * t.elapsed().as_secs_f64() {
                setup_spent += if serve_live {
                    session.time_setup()?
                } else {
                    let secs = inproc::time_setup(&w, &mut host);
                    ip.setup_s.push(secs);
                    secs
                };
            }
        }
        session.flood_end();
    }
    session.open_loop(args.seconds * spec.open_share, rec.as_mut());
    let mut sv = session.finish();

    // Workload properties measured during the run.
    let st = &ip.stats;
    let related = Ratio::new(st.sig_encodes as f64, st.windows as f64);
    report.range(
        "hq.related_per_window",
        related.value(),
        spec.related_per_window,
    );
    let rate = Ratio::new(sv.achieved_kfps, sv.offered_kfps);
    report.range(
        &format!("open-loop achieved/offered ({})", rate.describe()),
        rate.value(),
        RATE_RANGE,
    );
    let late_p95 = sv.late_ms.pct(95.0).unwrap_or(f64::INFINITY);
    report.range("gen.late_ms_p95", late_p95, (0.0, MAX_LATE_P95_MS));

    // Correctness: the in-process phase is scored against the planted
    // truth; the serve phases must match the in-process oracle exactly.
    let score = ip.score;
    report.check(
        format!(
            "recall {:.4} >= {MIN_RECALL} ({} / {} airings)",
            score.recall(),
            score.found,
            score.planted
        ),
        score.recall() >= MIN_RECALL,
    );
    report.check(
        format!(
            "precision {:.4} >= {MIN_PRECISION} ({} / {} detections)",
            score.precision(),
            score.correct,
            score.detections
        ),
        score.precision() >= MIN_PRECISION,
    );
    report.check(
        format!(
            "serve detections equal the serial-Fleet oracle ({} received, {} expected, {} differ)",
            sv.received, sv.expected, sv.mismatches
        ),
        sv.mismatches == 0,
    );
    report.check(format!("no Lagged drops ({})", sv.lagged), sv.lagged == 0);
    for e in &sv.errors {
        report.check(format!("client error: {e}"), false);
    }
    report.check(
        "daemon drained and exited cleanly".to_string(),
        sv.clean_exit,
    );
    let attempted = ip.attempted + sv.attempted;
    let failed = ip.failed + sv.failed();

    if args.trace {
        let rec = rec.as_ref().expect("traced run has a recorder");
        per_layer(
            &mut report,
            rec,
            &ip,
            &mut sv,
            repeat,
            bytes_per_kf,
            related,
        );
        let path = out_dir.join(format!("trace-{}.tsv", spec.name));
        let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        rec.write_tsv(std::io::BufWriter::new(file))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "trace: {} spans kept ({} aggregated only) in {}",
            rec.spans().len(),
            rec.unstored(),
            path.display()
        );
        for (name, t) in rec.all_totals() {
            println!(
                "  span {name:24} count={:9} total_ms={:10.3} self_ms={:10.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    } else {
        // Throughput is key frames per CPU second at the host's nominal
        // speed (see `stats::CpuClock` and `hostspeed`), the median over
        // epochs or passes; the host speed and wall-clock rate are printed.
        let ingest = ip.ingest_kfps;
        report.metric(
            "ingest_kfps",
            ingest,
            "kf/ref-s",
            format!(
                "median of {} epochs, {} key frames, {} B/kf; host speed median {:.3}; wall clock {:.0} kf/s",
                ip.kfps.len(),
                ip.keyframes,
                bytes_per_kf.value().round(),
                median(&ip.speeds),
                ip.wall_kfps
            ),
        );
        let serve_kfps = sv.serve_kfps;
        report.metric(
            "serve_kfps",
            serve_kfps,
            "kf/ref-s",
            format!(
                "median of {} passes, {} key frames, {} B chunks; host speed median {:.3}; wall clock {:.0} kf/s",
                sv.flood_kfps.len(),
                sv.flood_keyframes,
                workloads::CHUNK_BYTES,
                median(&sv.speeds),
                sv.wall_serve_kfps
            ),
        );
        report.pct_report_only("detect_p50_ms", &mut sv.detect_ms, 50.0, "ms");
        report.pct_report_only("detect_p95_ms", &mut sv.detect_ms, 95.0, "ms");
        // Time until a new query is live: on `serve_live` the subscribe→Ok
        // round trip under ingest load, elsewhere the `Fleet::subscribe`
        // call (also printed on `serve_live`). Printed, not gated: the
        // in-process call (0.1–3 ms) spread up to a third across seeds.
        let mut inproc_subs = ip.subscribe_ms.clone();
        if serve_live {
            report.pct_report_only("subscribe_p50_ms", &mut sv.subscribe_ms, 50.0, "ms");
            report.pct_report_only("subscribe_p95_ms", &mut sv.subscribe_ms, 95.0, "ms");
            report.pct_report_only("inproc_subscribe_p50_ms", &mut inproc_subs, 50.0, "ms");
            report.pct_report_only("inproc_subscribe_p95_ms", &mut inproc_subs, 95.0, "ms");
        } else {
            report.pct_report_only("subscribe_p50_ms", &mut inproc_subs, 50.0, "ms");
            report.pct_report_only("subscribe_p95_ms", &mut inproc_subs, 95.0, "ms");
        }
        report.ratio(
            "recall",
            Ratio::new(score.found as f64, score.planted as f64),
            "ratio",
        );
        report.ratio(
            "precision",
            Ratio::new(score.correct as f64, score.detections as f64),
            "ratio",
        );
        // Daemon set-ups are mostly process start-up and waits on the
        // client's reply poll, which the host's speed does not scale, so
        // they stay wall clock.
        let (setup, how) = if serve_live {
            (&sv.setup_s, "daemon, wall clock")
        } else {
            (&ip.setup_s, "in process, CPU time at nominal host speed")
        };
        report.metric(
            "setup_s",
            median(setup),
            "s",
            format!(
                "median of {} set-ups ({how}), {}",
                setup.len(),
                Samples::from(setup.clone()).describe()
            ),
        );
        let rss = if serve_live {
            sv.peak_rss_mb
        } else {
            inproc_rss
        };
        report.metric(
            "peak_rss_mb",
            rss.unwrap_or(f64::NAN),
            "MB",
            if serve_live {
                "daemon VmHWM"
            } else {
                "process VmHWM over in-process set-up and ingest"
            },
        );
        println!(
            "in-process vs serve: {}",
            Ratio::new(ingest, serve_kfps).describe()
        );
    }
    println!(
        "error_rate {}",
        Ratio::new(failed as f64, attempted as f64).describe()
    );
    report.check(
        format!("no failed operations ({failed} of {attempted})"),
        failed == 0,
    );

    for (what, ok) in &report.checks {
        println!("check {} {what}", if *ok { "ok  " } else { "FAIL" });
    }
    for m in &report.metrics {
        let tag = if m.report_only { " (report only)" } else { "" };
        println!(
            "metric {:28} {:14.4} {:6} {}{tag}",
            m.name, m.value, m.unit, m.detail
        );
    }
    let correct = report.checks.iter().all(|(_, ok)| *ok)
        && report.metrics.iter().all(|m| m.value.is_finite());
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| !m.report_only)
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(correct)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn per_layer(
    report: &mut Report,
    rec: &trace::Recorder,
    ip: &inproc::InprocResult,
    sv: &mut serve::ServeResult,
    repeat: Ratio,
    bytes_per_kf: Ratio,
    related: Ratio,
) {
    let kf = ip.traced_keyframes as f64;
    let ns = |name: &str| rec.totals(name).total_ns as f64;
    report.ratio(
        "codec.decode_ns_per_kf",
        Ratio::new(ns("codec.decode"), kf),
        "ns",
    );
    report.ratio("codec.bytes_per_kf", bytes_per_kf, "B");
    report.ratio(
        "features.fingerprint_ns_per_kf",
        Ratio::new(ns("features.fingerprint"), kf),
        "ns",
    );
    report.ratio("features.cell_repeat_ratio", repeat, "ratio");
    report.ratio(
        "ingest.self_ns_per_kf",
        Ratio::new(rec.totals("ingest.keyframe").self_ns as f64, kf),
        "ns",
    );
    let mut window_us = ip.window_us.clone();
    report.pct("detector.window_us_p50", &mut window_us, 50.0, "us");
    report.pct("detector.window_us_p95", &mut window_us, 95.0, "us");
    let mut frame_ns = ip.frame_ns.clone();
    report.pct("detector.frame_ns_p50", &mut frame_ns, 50.0, "ns");
    let st = &ip.stats;
    let windows = st.windows as f64;
    report.ratio(
        "hq.row_searches_per_probe",
        Ratio::new(st.index_row_searches as f64, st.index_probes as f64),
        "count",
    );
    report.ratio("hq.related_per_window", related, "count");
    report.ratio(
        "store.sig_ors_per_window",
        Ratio::new(st.sig_ors as f64, windows),
        "count",
    );
    report.ratio(
        "store.sig_compares_per_window",
        Ratio::new(st.sig_compares as f64, windows),
        "count",
    );
    report.ratio(
        "store.prune_ratio",
        Ratio::new(st.lemma2_prunes as f64, st.sig_encodes as f64),
        "ratio",
    );
    report.ratio(
        "store.match_ratio",
        Ratio::new(st.detections as f64, st.sig_compares as f64),
        "ratio",
    );
    report.metric(
        "store.live_sig_peak",
        st.live_signature_peak as f64,
        "count",
        "peak over windows",
    );
    let mut sub = ip.subscribe_ms.clone();
    report.pct("fleet.subscribe_ms", &mut sub, 50.0, "ms");
    let mut unsub = ip.unsubscribe_ms.clone();
    report.pct("fleet.unsubscribe_ms", &mut unsub, 50.0, "ms");
    report.metric(
        "fleet.catalogue_queries",
        ip.catalogue_queries as f64,
        "count",
        "queries in the in-process catalogue",
    );
    report.pct("serve.send_chunk_us_p95", &mut sv.send_chunk_us, 95.0, "us");
    report.pct("serve.end_ack_ms", &mut sv.end_ack_ms, 50.0, "ms");
    report.ratio(
        "serve.wire_bytes_per_kf",
        Ratio::new(sv.wire_bytes as f64, sv.wire_keyframes as f64),
        "B",
    );
    report.pct("serve.rtt_ms_p50", &mut sv.rtt_ms, 50.0, "ms");
    report.metric(
        "serve.queue_depth_max",
        sv.queue_depth_max as f64,
        "count",
        "max over health replies",
    );
    report.metric("serve.lagged", sv.lagged as f64, "count", "Lagged drops");
    report.pct("serve.detect_p50_ms", &mut sv.detect_ms, 50.0, "ms");
    report.pct("serve.detect_p95_ms", &mut sv.detect_ms, 95.0, "ms");
    report.pct("gen.late_ms_p95", &mut sv.late_ms, 95.0, "ms");
    report.ratio(
        "trace.ingest_ratio",
        Ratio::new(ip.traced_ingest_kfps, ip.ingest_kfps),
        "ratio",
    );
    report.ratio(
        "trace.serve_ratio",
        Ratio::new(sv.traced_serve_kfps, sv.serve_kfps),
        "ratio",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "serve_live",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_live", 7, 10.0, true)
        );
        assert!(args(&["--workload", "x", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "5",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--seed", "1", "--seconds", "5"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }

    #[test]
    fn every_workload_is_named() {
        for w in workloads::ALL {
            assert_eq!(workloads::by_name(w.name).map(|s| s.name), Some(w.name));
        }
        assert!(workloads::by_name("nope").is_none());
    }
}
