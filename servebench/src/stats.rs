//! The benchmark's own statistics: the percentile rule, open-loop
//! latency and lag accounting, and `/proc` parsing.

use std::time::{Duration, Instant};

/// Percentiles the tail rule may report, lowest first.
pub const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of the `p`-th percentile among `n`
/// samples. The small slack keeps `99.9 * 10000 / 100` at rank 9990
/// despite floating-point rounding.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of ascending `sorted` (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie beyond the nearest-rank `p`-th
/// percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median
/// has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Whether `n` samples support reporting the `p`-th percentile.
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One paced (open-loop) round: when it was due, when the generator
/// actually wrote it, and when its verdict arrived.
#[derive(Debug, Clone, Copy)]
pub struct PacedRound {
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
}

impl PacedRound {
    /// Latency from the due time, so a stall also charges the rounds
    /// that queued behind it.
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }

    /// How late the generator wrote the round.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }
}

/// Latency and lag summary of the paced rounds, in microseconds.
#[derive(Debug, Clone, Default)]
pub struct PacedSummary {
    pub samples: usize,
    pub p50_us: f64,
    pub p99_us: f64,
    pub lag_p99_us: f64,
    /// The highest percentile the sample count supports.
    pub tail_p: Option<f64>,
    pub tail_us: f64,
}

pub fn summarize_paced(rounds: &[PacedRound]) -> PacedSummary {
    let lat = sorted(rounds.iter().map(|r| us(r.latency())).collect());
    let lag = sorted(rounds.iter().map(|r| us(r.lag())).collect());
    let tail_p = tail_percentile(lat.len());
    PacedSummary {
        samples: lat.len(),
        p50_us: percentile(&lat, 50.0),
        p99_us: percentile(&lat, 99.0),
        lag_p99_us: percentile(&lag, 99.0),
        tail_p,
        tail_us: tail_p.map_or(0.0, |p| percentile(&lat, p)),
    }
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100
/// on every Linux architecture this runs on).
pub const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds from the text of `/proc/<pid>/stat`.
/// The command name may contain spaces or parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu_s(text: &str) -> Option<f64> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Field 3 (state) is fields[0]; utime and stime are fields 14, 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set (`VmHWM`) in MB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_mb(text: &str) -> Option<f64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") => Some(kb / 1024.0),
        _ => None,
    }
}

pub fn proc_cpu_s(pid: &str) -> Option<f64> {
    parse_stat_cpu_s(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

pub fn proc_hwm_mb(pid: &str) -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert!(supports(1000, 99.0) && !supports(999, 99.0));
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        // Due at 0, written 30us late, verdict at 100us.
        let late = PacedRound {
            due: at(0),
            sent: at(30),
            done: at(100),
        };
        assert_eq!(late.latency(), Duration::from_micros(100));
        assert_eq!(late.lag(), Duration::from_micros(30));
        // Written early (ahead of its due time): no negative lag.
        let early = PacedRound {
            due: at(50),
            sent: at(40),
            done: at(90),
        };
        assert_eq!(early.lag(), Duration::ZERO);
        assert_eq!(early.latency(), Duration::from_micros(40));

        // A stall: 1000 rounds due every 10us, the generator blocked
        // for the first 5ms, then everything answered 20us after the
        // write. Every round due during the stall waits it out.
        let rounds: Vec<PacedRound> = (0..1000u64)
            .map(|i| {
                let due = at(i * 10);
                let sent = due.max(at(5000));
                PacedRound {
                    due,
                    sent,
                    done: sent + Duration::from_micros(20),
                }
            })
            .collect();
        let s = summarize_paced(&rounds);
        assert_eq!(s.samples, 1000);
        assert_eq!(s.tail_p, Some(99.0));
        // Half the rounds fell due after the stall and waited only for
        // their verdict.
        assert!((s.p50_us - 20.0).abs() < 1e-6, "{}", s.p50_us);
        // The tail is the first round, which waited the whole stall.
        assert!((s.p99_us - 4920.0).abs() < 1e-6, "{}", s.p99_us);
        assert!((s.lag_p99_us - 4900.0).abs() < 1e-6, "{}", s.lag_p99_us);
    }

    #[test]
    fn parses_proc_stat_cpu_times() {
        // A command name with spaces and a parenthesis.
        let text = "4242 (rap (serve) x) S 1 4242 4242 0 -1 4194560 1200 0 0 0 \
                    250 75 0 0 20 0 6 0 12345 123456789 2048 18446744073709551615";
        assert_eq!(parse_stat_cpu_s(text), Some(3.25));
        assert_eq!(parse_stat_cpu_s("4242 (rap) S 1"), None);
        assert_eq!(parse_stat_cpu_s("no paren"), None);
    }

    #[test]
    fn parses_proc_status_peak_rss() {
        let text = "Name:\trap\nVmPeak:\t  99999 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4096 kB\n";
        assert_eq!(parse_vm_hwm_mb(text), Some(5.0));
        assert_eq!(parse_vm_hwm_mb("Name:\trap\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t 5120 pages\n"), None);
    }

    #[test]
    fn reads_this_process_from_proc() {
        let pid = std::process::id().to_string();
        assert!(proc_cpu_s(&pid).is_some());
        assert!(proc_hwm_mb(&pid).is_some_and(|mb| mb > 0.0));
    }
}
