//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer;
//! nothing inside the program is instrumented. Each span has a name, a
//! start and end, its parent span and a request id shared by every span
//! of one request (one key frame, one chunk, one round trip). Spans stay
//! in memory — up to a cap, past which they are only aggregated — and are
//! written out when the run ends. Per-layer self time is the span's
//! duration minus the part covered by its children.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Marks "no parent" / "not stored".
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u64,
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
struct Open {
    slot: u32,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    stack: Vec<Open>,
    totals: BTreeMap<&'static str, LayerTotals>,
    unstored: u64,
}

impl Recorder {
    pub fn new(cap: usize) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(cap.min(1 << 16)),
            cap,
            stack: Vec::new(),
            totals: BTreeMap::new(),
            unstored: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, request: u64) {
        let t = self.now_ns();
        self.enter_at(name, request, t);
    }

    /// Close the innermost open span; returns its duration in ns.
    pub fn exit(&mut self) -> u64 {
        let t = self.now_ns();
        self.exit_at(t)
    }

    pub fn enter_at(&mut self, name: &'static str, request: u64, start_ns: u64) {
        let parent = self.stack.last().map_or(NONE, |o| o.slot);
        let slot = if self.spans.len() < self.cap {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                request,
            });
            (self.spans.len() - 1) as u32
        } else {
            self.unstored += 1;
            NONE
        };
        self.stack.push(Open {
            slot,
            name,
            start_ns,
            child_ns: 0,
        });
    }

    /// # Panics
    /// Panics if no span is open.
    pub fn exit_at(&mut self, end_ns: u64) -> u64 {
        let open = self.stack.pop().expect("exit without an open span");
        let dur = end_ns.saturating_sub(open.start_ns);
        if open.slot != NONE {
            self.spans[open.slot as usize].end_ns = end_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let t = self.totals.entry(open.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        dur
    }

    pub fn totals(&self, name: &str) -> LayerTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    pub fn all_totals(&self) -> &BTreeMap<&'static str, LayerTotals> {
        &self.totals
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans aggregated but not kept because the cap was reached.
    pub fn unstored(&self) -> u64 {
        self.unstored
    }

    /// Write the kept spans as tab-separated lines:
    /// `index name start_ns end_ns parent request`.
    pub fn write_tsv(&self, mut out: impl Write) -> std::io::Result<()> {
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference self time per span name, from a stored span list: each
    /// span's duration minus the union of its children's intervals.
    fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if s.parent != NONE {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in spans.iter().zip(&mut children) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns) - covered;
        }
        out
    }

    fn request_tree(r: &mut Recorder, base: u64, req: u64) {
        r.enter_at("ingest", req, base);
        r.enter_at("codec", req, base + 10);
        r.exit_at(base + 40);
        r.enter_at("features", req, base + 45);
        r.exit_at(base + 60);
        r.enter_at("detector", req, base + 60);
        r.exit_at(base + 95);
        r.exit_at(base + 100);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new(1024);
        request_tree(&mut r, 0, 7);
        request_tree(&mut r, 1000, 8);
        let ingest = r.totals("ingest");
        assert_eq!(
            ingest,
            LayerTotals {
                count: 2,
                total_ns: 200,
                self_ns: 2 * (100 - 30 - 15 - 35)
            }
        );
        assert_eq!(r.totals("codec").self_ns, 60);
        assert_eq!(r.totals("nothing"), LayerTotals::default());
        // The offline computation over the stored spans agrees.
        let offline = self_times(r.spans());
        for (name, t) in r.all_totals() {
            assert_eq!(offline[name], t.self_ns, "{name}");
        }
        // Parent links and request ids.
        let spans = r.spans();
        assert_eq!(spans.len(), 8);
        assert_eq!(spans[0].parent, NONE);
        assert!(spans[1..4].iter().all(|s| s.parent == 0 && s.request == 7));
        assert!(spans[5..8].iter().all(|s| s.parent == 4 && s.request == 8));
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            Span {
                name: "p",
                start_ns: 0,
                end_ns: 100,
                parent: NONE,
                request: 1,
            },
            Span {
                name: "c",
                start_ns: 10,
                end_ns: 50,
                parent: 0,
                request: 1,
            },
            Span {
                name: "c",
                start_ns: 30,
                end_ns: 70,
                parent: 0,
                request: 1,
            },
        ];
        let st = self_times(&spans);
        assert_eq!(st["p"], 40);
        assert_eq!(st["c"], 80);
    }

    #[test]
    fn spans_past_the_cap_are_aggregated_not_stored() {
        let mut r = Recorder::new(3);
        request_tree(&mut r, 0, 1);
        assert_eq!(r.spans().len(), 3);
        assert_eq!(r.unstored(), 1);
        assert_eq!(r.totals("detector").count, 1);
        assert_eq!(r.totals("ingest").self_ns, 20);
    }

    #[test]
    fn written_trace_has_one_line_per_kept_span() {
        let mut r = Recorder::new(16);
        r.enter("outer", 3);
        r.enter("inner", 3);
        r.exit();
        r.exit();
        let mut buf = Vec::new();
        r.write_tsv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("0\touter\t") && lines[1].ends_with("\t-1\t3"));
        assert!(lines[2].starts_with("1\tinner\t") && lines[2].ends_with("\t0\t3"));
    }
}
