//! The benchmark's own arithmetic: percentiles under the "at least ten
//! samples beyond" rule, ratios printed with their base, and peak-RSS
//! parsing.

/// Samples needed beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles a tail may be reported at, highest first.
const TAILS: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 100]`).
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of the `p`-th percentile among `n > 0` samples.
/// The small epsilon keeps `95 × 200 / 100` from rounding up past 190.
fn rank(n: usize, p: f64) -> usize {
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// Whether the `p`-th percentile of `n` samples has at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn reportable(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= MIN_BEYOND
}

/// The highest percentile with at least [`MIN_BEYOND`] samples beyond
/// it, if any.
pub fn highest_tail(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&p| reportable(n, p))
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0).unwrap_or(f64::NAN)
}

/// A distribution of timings.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl From<Vec<f64>> for Samples {
    fn from(values: Vec<f64>) -> Samples {
        Samples {
            values,
            sorted: false,
        }
    }
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// A copy with every sample multiplied by `k` (unit conversion).
    pub fn scaled(&self, k: f64) -> Samples {
        Samples {
            values: self.values.iter().map(|v| v * k).collect(),
            sorted: self.sorted,
        }
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile, `None` when empty.
    pub fn pct(&mut self, p: f64) -> Option<f64> {
        self.sort();
        percentile(&self.values, p)
    }

    /// Nearest-rank percentile only when it has [`MIN_BEYOND`] samples
    /// beyond it (the median needs 20 samples, p95 needs 200).
    pub fn tail(&mut self, p: f64) -> Option<f64> {
        if reportable(self.len(), p) {
            self.pct(p)
        } else {
            None
        }
    }

    /// `median=… p<tail>=… n=…` for the report.
    pub fn describe(&mut self) -> String {
        let n = self.len();
        let med = self.pct(50.0).unwrap_or(f64::NAN);
        match highest_tail(n) {
            Some(p) => {
                let t = self.pct(p).unwrap_or(f64::NAN);
                format!("median={med:.4} p{p}={t:.4} n={n}")
            }
            None => format!("median={med:.4} n={n}"),
        }
    }
}

/// A ratio that is always printed with its numerator and denominator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    pub num: f64,
    pub den: f64,
}

impl Ratio {
    pub fn new(num: f64, den: f64) -> Ratio {
        Ratio { num, den }
    }

    /// `num / den`; 0 when the base is empty.
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "{:.6} = {} / {}",
            self.value(),
            fmt_num(self.num),
            fmt_num(self.den)
        )
    }
}

fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

/// Parse `VmHWM` (peak resident set) from a `/proc/<pid>/status` body,
/// in kibibytes.
pub fn parse_vmhwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") | None => Some(value),
        Some(_) => None,
    }
}

/// Peak resident set of a process in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vmhwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

extern "C" {
    /// glibc: return free heap pages to the kernel.
    fn malloc_trim(pad: usize) -> i32;
    /// glibc: set an allocator parameter.
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Keep freed memory in the heap: serve allocations up to 32 MiB from
/// it and never trim it on `free`. With glibc's defaults the mmap
/// threshold moves with the order of earlier frees, so whether each
/// catalogue copy page-faults its megabytes afresh changed from run to
/// run (a `catalogue_churn` subscribe took 3 ms in one run of a seed and
/// 13 ms in the next). Returns whether glibc took both settings.
pub fn pin_heap() -> bool {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt only sets allocator parameters; it is called before
    // the process starts any thread.
    unsafe { mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 }
}

/// Hand freed heap memory back to the kernel, so that memory the
/// benchmark's own generator freed no longer counts as resident.
pub fn release_free_memory() {
    // SAFETY: malloc_trim only walks the allocator's own free lists.
    unsafe {
        malloc_trim(0);
    }
}

/// Reset this process's peak-RSS mark so later readings cover only the
/// work after this call. Returns whether the kernel accepted it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Run this process, and every process it starts later, on one core: the
/// lowest it may use. The daemon and its client then share that core, so
/// the host-speed reference (see `hostspeed`), timed on the client's
/// thread, ran where the daemon's engine ran: on a shared host two cores
/// slow down independently of each other. Returns the core, or `None` if
/// the affinity could not be read or set.
pub fn pin_to_one_core() -> Option<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: the kernel writes at most `size_of_val(&mask)` bytes.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } < 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().find(|(_, w)| **w != 0)?;
    let core = word * 64 + bits.trailing_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << (core % 64);
    // SAFETY: the kernel reads `size_of_val(&one)` bytes.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(core)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
}

/// A CPU-time clock: the time a thread or process has run on a core.
/// Throughput is measured against it and not the wall clock, because on a
/// shared host the wall clock also counts time the host gave the cores to
/// other machines (steal) and time the benchmark's own threads and the
/// daemon waited for each other's core; neither is work of the program.
#[derive(Debug, Clone, Copy)]
pub struct CpuClock(i32);

impl CpuClock {
    /// The calling thread's CPU time; read it only on that thread.
    pub fn this_thread() -> CpuClock {
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        CpuClock(CLOCK_THREAD_CPUTIME_ID)
    }

    /// This process's CPU time, all threads.
    pub fn this_process() -> CpuClock {
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        CpuClock(CLOCK_PROCESS_CPUTIME_ID)
    }

    /// Another process's CPU time, all threads.
    pub fn of_process(pid: u32) -> Option<CpuClock> {
        let mut clock = 0i32;
        // SAFETY: the call writes one clock id through a valid pointer.
        let rc = unsafe { clock_getcpuclockid(pid as i32, &mut clock) };
        (rc == 0).then_some(CpuClock(clock))
    }

    /// Seconds of CPU time so far; NaN if the clock cannot be read (the
    /// process has exited), so a rate built on it fails the run.
    pub fn seconds(self) -> f64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: the call writes one timespec through a valid pointer.
        match unsafe { clock_gettime(self.0, &mut ts) } {
            0 => ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9,
            _ => f64::NAN,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p95 of 200 samples is rank 190: exactly ten beyond.
        assert_eq!(beyond(200, 95.0), 10);
        assert!(reportable(200, 95.0));
        assert!(!reportable(199, 95.0));
        // p99 needs 1000, p99.9 needs 10 000.
        assert!(reportable(1000, 99.0));
        assert!(!reportable(999, 99.0));
        assert!(reportable(10_000, 99.9));
        // The median needs 20 samples (rank 10 leaves ten beyond).
        assert!(!reportable(19, 50.0));
        assert!(reportable(20, 50.0));
        assert!(!reportable(0, 50.0));
    }

    #[test]
    fn highest_tail_picks_the_largest_reportable_percentile() {
        assert_eq!(highest_tail(50), None);
        assert_eq!(highest_tail(100), Some(90.0));
        assert_eq!(highest_tail(250), Some(95.0));
        assert_eq!(highest_tail(1_000), Some(99.0));
        assert_eq!(highest_tail(20_000), Some(99.9));
    }

    #[test]
    fn tail_refuses_thin_distributions() {
        let mut s = Samples::new();
        for i in 0..199 {
            s.push(f64::from(i));
        }
        assert_eq!(s.tail(95.0), None);
        s.push(199.0);
        assert_eq!(s.tail(95.0), Some(189.0));
        assert_eq!(s.tail(50.0), Some(99.0));
        assert!(
            s.describe().contains("p95=189.0000 n=200"),
            "{}",
            s.describe()
        );
    }

    #[test]
    fn ratio_prints_its_base() {
        let r = Ratio::new(31.0, 4.0);
        assert_eq!(r.value(), 7.75);
        assert_eq!(r.describe(), "7.750000 = 31 / 4");
        let z = Ratio::new(5.0, 0.0);
        assert_eq!(z.value(), 0.0);
        assert_eq!(z.describe(), "0.000000 = 5 / 0");
        assert_eq!(Ratio::new(1.5, 3.0).describe(), "0.500000 = 1.500 / 3");
    }

    #[test]
    fn vmhwm_parsing() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  123456 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vmhwm_kib(status), Some(20480));
        assert_eq!(parse_vmhwm_kib("VmHWM:\t7\n"), Some(7));
        assert_eq!(parse_vmhwm_kib("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t5 MB\n"), None);
        // The live process always has one.
        assert!(peak_rss_mb("self").is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn cpu_clocks_count_work_not_sleep() {
        let thread = CpuClock::this_thread();
        let own = CpuClock::of_process(std::process::id()).expect("own clock");
        let (t0, p0) = (thread.seconds(), own.seconds());
        std::thread::sleep(std::time::Duration::from_millis(50));
        let t1 = thread.seconds();
        assert!(t1 - t0 < 0.02, "sleep counted as CPU: {}", t1 - t0);
        let mut x = 0u64;
        while thread.seconds() - t1 < 0.05 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(own.seconds() - p0 >= 0.05);
        assert!(CpuClock::this_process().seconds() >= thread.seconds());
        // A process that has exited and been reaped: no clock, or one
        // that reads NaN.
        let mut child = std::process::Command::new("true")
            .spawn()
            .expect("spawn true");
        let pid = child.id();
        child.wait().expect("reap");
        assert!(CpuClock::of_process(pid).is_none_or(|c| c.seconds().is_nan()));
    }
}
