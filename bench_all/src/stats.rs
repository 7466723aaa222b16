//! Order statistics the benchmark reports, and the process CPU clock.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is the formula the spread of
//! ten runs is judged by; using the same one inside a run keeps the printed
//! `(q3 - q1) / median` comparable with the driver's.

/// Sort a copy of `values` ascending (NaNs, which no metric produces, sort
/// last so they cannot hide in the middle).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as `statistics.quantiles(values, n=4)` gives
/// them. Fewer than two values have no spread: both quartiles are the value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The `p`-quantile (`0.0..=1.0`) of `values`, linearly interpolated between
/// the two nearest order statistics; 0 when empty.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    let Some(last) = v.len().checked_sub(1) else { return 0.0 };
    let at = p.clamp(0.0, 1.0) * last as f64;
    let (lo, frac) = (at.floor() as usize, at.fract());
    if lo >= last {
        v[last]
    } else {
        v[lo] * (1.0 - frac) + v[lo + 1] * frac
    }
}

/// Median and quartiles of one metric over a run's windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median over the windows.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarise per-window values.
    pub fn of(values: &[f64]) -> Self {
        let (q1, q3) = quartiles(values);
        Self { median: median(values), q1, q3 }
    }

    /// `(q3 - q1) / median`, the spread the bounds are compared against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The tail of a latency sample: the 99th percentile when at least ten
/// samples lie beyond it, otherwise the highest percentile for which ten do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency at [`Tail::percentile`].
    pub value: f64,
    /// The percentile actually reported (99.0 for 1 000 samples or more).
    pub percentile: f64,
}

/// Nearest-rank value at `pct` of an ascending sample.
pub fn percentile_of_sorted(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Pick the tail of an ascending sample (see [`Tail`]). With fewer than 21
/// samples nothing has ten samples beyond it above the median, so the median
/// is reported and labelled as such.
pub fn tail_of_sorted(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    if n == 0 {
        return Tail { value: 0.0, percentile: 0.0 };
    }
    let p99_index = ((0.99 * n as f64).ceil() as usize).clamp(1, n) - 1;
    let index = if n >= 11 { p99_index.min(n - 11) } else { 0 }.max((n - 1) / 2);
    Tail { value: sorted[index], percentile: 100.0 * (index + 1) as f64 / n as f64 }
}

/// Ascending copy of nanosecond samples, in microseconds.
pub fn sorted_us(samples_ns: &[u64]) -> Vec<f64> {
    let mut v: Vec<u64> = samples_ns.to_vec();
    v.sort_unstable();
    v.into_iter().map(|ns| ns as f64 / 1_000.0).collect()
}

/// CPU time this process has consumed (user + system, every thread, exited
/// ones included), in seconds; `None` where no such clock can be read.
///
/// On 64-bit Linux this is `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`: the
/// same quantity as `utime + stime` of `/proc/self/stat`, in nanoseconds
/// instead of 10 ms ticks (a tick is 3 % of the CPU one `wire_point` window
/// uses). `/proc/self/task/*/schedstat` would need no foreign call but is
/// stale for a thread that is on a CPU at the moment of reading, which a
/// unit test here caught. Elsewhere the `/proc/self/stat` ticks are used.
pub fn process_cpu_seconds() -> Option<f64> {
    clock_cpu_seconds().or_else(stat_cpu_seconds)
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn clock_cpu_seconds() -> Option<f64> {
    /// `struct timespec` of 64-bit Linux: `time_t` and `long` are both i64.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` is the C library's (std already links it); it
    // writes one `struct timespec` through the pointer, which points at a
    // live, writable, correctly laid out value for this target (see the
    // `cfg` above), and retains nothing.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (status == 0).then(|| ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn clock_cpu_seconds() -> Option<f64> {
    None
}

/// `utime + stime` of `/proc/self/stat`, in `USER_HZ` ticks, which Linux
/// fixes at 100 for every architecture it exposes `/proc` on.
fn stat_cpu_seconds() -> Option<f64> {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) is parenthesised and may contain spaces;
    // the numeric fields start after the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_windows_and_quartiles_match_python() {
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        assert_eq!(s.spread(), 1.0);
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = Summary::of(&[20.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        let s = Summary::of(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (7.0, 7.0, 7.0, 0.0));
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [40.0, 10.0, 30.0, 20.0, 50.0];
        assert_eq!((quantile(&v, 0.0), quantile(&v, 0.5), quantile(&v, 1.0)), (10.0, 30.0, 50.0));
        assert_eq!(quantile(&v, 0.1), 14.0);
        assert_eq!(quantile(&v, 0.9), 46.0);
        assert_eq!(quantile(&[7.0], 0.1), 7.0);
        assert_eq!(quantile(&[], 0.1), 0.0);
    }

    #[test]
    fn tail_honours_ten_samples_beyond() {
        let sample = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        // 1 000 samples: p99 is the 990th value, ten lie beyond it.
        let t = tail_of_sorted(&sample(1_000));
        assert_eq!((t.value, t.percentile), (990.0, 99.0));
        // 5 000 samples: still p99, fifty beyond.
        assert_eq!(tail_of_sorted(&sample(5_000)).value, 4_950.0);
        // 400 samples: p99 would leave only four beyond, so the picker backs
        // off to the 390th value (p97.5), which has exactly ten beyond.
        let t = tail_of_sorted(&sample(400));
        assert_eq!((t.value, t.percentile), (390.0, 97.5));
        // Too few samples for any tail: the median, labelled as p50-ish.
        let t = tail_of_sorted(&sample(15));
        assert_eq!(t.value, 8.0);
        assert!(t.percentile < 60.0);
        assert_eq!(tail_of_sorted(&[]).value, 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_of_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_of_sorted(&v, 95.0), 95.0);
        assert_eq!(percentile_of_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_of_sorted(&v, 0.0), 1.0);
    }

    #[test]
    fn cpu_clock_counts_running_and_exited_threads() {
        fn spin(ms: u128) {
            let started = std::time::Instant::now();
            let mut x = 0u64;
            while started.elapsed().as_millis() < ms {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
        }
        let Some(before) = process_cpu_seconds() else { return };
        let coarse_before = stat_cpu_seconds();
        // Read while the other thread is still on a CPU (it arrives at the
        // barrier last and keeps spinning), and again after it has exited.
        let done = std::sync::Barrier::new(2);
        let running = std::thread::scope(|scope| {
            scope.spawn(|| {
                spin(80);
                done.wait();
                spin(20);
            });
            done.wait();
            process_cpu_seconds().expect("readable a moment ago") - before
        });
        assert!(running > 0.06 && running < 5.0, "80 ms on another thread read {running} s");
        let exited = process_cpu_seconds().expect("readable") - before;
        assert!(exited >= running + 0.01, "an exited thread's time is kept: {exited}");
        if let (Some(a), Some(b)) = (coarse_before, stat_cpu_seconds()) {
            assert!(b > a, "100 ms of spinning must show in a 10 ms clock");
        }
    }
}
