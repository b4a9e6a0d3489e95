//! Process-level measurements: CPU time, resident memory, and clocks.

use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    _rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU time consumed by every thread of this process.
pub fn process_cpu() -> Duration {
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        _rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the 64-bit
    // Linux layout, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let micros = |t: &Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
    Duration::from_micros(micros(&usage.ru_utime) + micros(&usage.ru_stime))
}

/// Returns freed heap pages to the kernel, so RSS measured next reflects
/// live data rather than what the allocator kept from set-up.
pub fn trim_heap() {
    #[cfg(target_env = "gnu")]
    // SAFETY: malloc_trim only releases free memory held by the allocator;
    // it has no preconditions.
    unsafe {
        malloc_trim(0);
    }
}

/// Reads one `kB` field (`VmRSS`, `VmHWM`) of `/proc/self/status`, in bytes.
fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map(|kb| kb * 1024)
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"))
}

/// Current resident set size, bytes.
pub fn rss_bytes() -> u64 {
    status_kb("VmRSS:")
}

/// Peak resident set size since the last [`reset_peak_rss`], bytes.
pub fn peak_rss_bytes() -> u64 {
    status_kb("VmHWM:")
}

/// Resets the kernel's peak-RSS mark to the current RSS.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("write 5 to /proc/self/clear_refs");
}

/// Cost of one `Instant::now()` read, ns (median of several trials).
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 200_000;
    let mut trials: Vec<f64> = (0..7)
        .map(|_| {
            let start = Instant::now();
            let mut last = start;
            for _ in 0..READS {
                last = std::hint::black_box(Instant::now());
            }
            (last - start).as_nanos() as f64 / f64::from(READS)
        })
        .collect();
    median(&mut trials)
}

/// Number of cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Median of a non-empty sample (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile of a non-empty sample (sorts in place).
pub fn percentile(values: &mut [f64], pct: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    values.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Samples per chunk for [`chunked_percentile`]: a p99 keeps ten samples
/// beyond it.
const CHUNK: usize = 1000;

/// The median over consecutive chunks of [`CHUNK`] samples of each
/// chunk's percentile (the plain percentile when there is less than two
/// chunks): one burst of interference moves one chunk, not the result.
pub fn chunked_percentile(values: &[f64], pct: f64) -> f64 {
    let mut per_chunk: Vec<f64> = values
        .chunks_exact(CHUNK)
        .map(|c| percentile(&mut c.to_vec(), pct))
        .collect();
    if per_chunk.len() < 2 {
        return percentile(&mut values.to_vec(), pct);
    }
    median(&mut per_chunk)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_percentile_takes_the_median_chunk() {
        // Three chunks whose p50s are 1, 2 and 100: the median chunk wins.
        let mut v: Vec<f64> = vec![1.0; CHUNK];
        v.extend(vec![2.0; CHUNK]);
        v.extend(vec![100.0; CHUNK]);
        assert_eq!(chunked_percentile(&v, 50.0), 2.0);
        // Below two chunks it is the plain percentile.
        let few: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(chunked_percentile(&few, 99.0), 99.0);
    }
}
