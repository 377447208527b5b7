//! Measurement windows, outcome tallies and the statistics over them.

use std::time::{Duration, Instant};

use crate::adapter::Failure;

/// Length of one slice of the measured window; throughput is the median
/// over slices, so a short stall elsewhere on the machine moves it little.
pub const SLICE: Duration = Duration::from_millis(500);

/// Which requests of a window record spans.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Trace {
    Off,
    /// Requests that start in an odd slice: untraced and traced slices
    /// alternate, so each traced slice has an untraced neighbour that ran
    /// under the same conditions.
    Alternate,
    All,
}

/// The measured interval of a phase.
#[derive(Clone, Copy)]
pub struct Window {
    pub start: Instant,
    pub end: Instant,
    pub trace: Trace,
}

impl Window {
    pub fn new(start: Instant, length: Duration, trace: Trace) -> Self {
        Self {
            start,
            end: start + length,
            trace,
        }
    }

    pub fn contains(&self, at: Instant) -> bool {
        at >= self.start && at < self.end
    }

    /// Whether a request that starts at `at` records spans.
    pub fn traced(&self, at: Instant) -> bool {
        self.contains(at)
            && match self.trace {
                Trace::Off => false,
                Trace::Alternate => self.slice(at) % 2 == 1,
                Trace::All => true,
            }
    }

    fn slice(&self, at: Instant) -> usize {
        (at.duration_since(self.start).as_nanos() / SLICE.as_nanos()) as usize
    }

    pub fn slices(&self) -> usize {
        self.slice(self.end - Duration::from_nanos(1)) + 1
    }

    /// Where slice `s` starts; `slices()` gives the window's end.
    pub fn slice_start(&self, s: usize) -> Instant {
        (self.start + SLICE * s as u32).min(self.end)
    }
}

/// Saturating nanoseconds of a duration, as stored in sample vectors.
pub fn ns(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// Outcomes of the requests one thread saw inside a window.
#[derive(Default)]
pub struct Tally {
    pub ok: u64,
    pub refused: u64,
    pub errored: u64,
    pub mismatched: u64,
    /// Verified operands per slice of the window.
    pub slice_ops: Vec<u64>,
    /// Latency in ns of the requests that recorded no spans; a failed
    /// request counts as `u32::MAX`, so it misses every latency limit.
    pub latency_ns: Vec<u32>,
    /// The same, for the requests that recorded spans.
    pub traced_latency_ns: Vec<u32>,
}

impl Tally {
    /// Records the outcome of a request that belongs to the window when
    /// `at` falls inside it (its completion on a closed loop, its due time
    /// on an open one); its operands count in the slice it completed in,
    /// `done`, and its latency with the traced ones when `traced` is set.
    pub fn record(
        &mut self,
        window: &Window,
        (at, done): (Instant, Instant),
        outcome: Result<usize, Failure>,
        latency: Duration,
        traced: bool,
    ) {
        if !window.contains(at) {
            return;
        }
        let latency = match outcome {
            Ok(ops) => {
                self.ok += 1;
                let slice = window.slice(done).min(window.slices() - 1);
                if self.slice_ops.len() <= slice {
                    self.slice_ops.resize(window.slices(), 0);
                }
                self.slice_ops[slice] += ops as u64;
                ns(latency)
            }
            Err(failure) => {
                self.fail(failure);
                u32::MAX
            }
        };
        if traced {
            self.traced_latency_ns.push(latency);
        } else {
            self.latency_ns.push(latency);
        }
    }

    pub fn fail(&mut self, failure: Failure) {
        match failure {
            Failure::Refused => self.refused += 1,
            Failure::Errored => self.errored += 1,
            Failure::Mismatched => self.mismatched += 1,
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.ok += other.ok;
        self.refused += other.refused;
        self.errored += other.errored;
        self.mismatched += other.mismatched;
        if self.slice_ops.len() < other.slice_ops.len() {
            self.slice_ops.resize(other.slice_ops.len(), 0);
        }
        for (mine, theirs) in self.slice_ops.iter_mut().zip(other.slice_ops) {
            *mine += theirs;
        }
        self.latency_ns.extend(other.latency_ns);
        self.traced_latency_ns.extend(other.traced_latency_ns);
    }

    pub fn failed(&self) -> u64 {
        self.refused + self.errored + self.mismatched
    }

    pub fn attempted(&self) -> u64 {
        self.ok + self.failed()
    }

    /// Median verified operands per second over the window's slices.
    pub fn ops_per_s(&self, window: &Window) -> f64 {
        let mut per_slice: Vec<f64> = (0..window.slices())
            .map(|s| *self.slice_ops.get(s).unwrap_or(&0) as f64 / SLICE.as_secs_f64())
            .collect();
        median(&mut per_slice)
    }
}

/// What tracing costs under `Trace::Alternate`: over each pair of an
/// untraced slice and the traced slice after it, the traced slice's process
/// CPU per verified operand over the untraced one's, minus 1; the median of
/// the pairs. Neighbouring slices share the host's state, so its drift
/// cancels.
pub fn trace_overhead(slice_cpu_s: &[f64], slice_ops: &[u64]) -> f64 {
    let per_op = |s: usize| slice_cpu_s[s] / slice_ops.get(s).copied().unwrap_or(0).max(1) as f64;
    let mut ratios: Vec<f64> = (1..slice_cpu_s.len())
        .step_by(2)
        .map(|traced| per_op(traced) / per_op(traced - 1) - 1.0)
        .collect();
    median(&mut ratios)
}

/// Median of `values` (0 for none); reorders them.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank quantile of `samples` (0 for none); reorders them.
pub fn quantile(samples: &mut [u32], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    let (_, value, _) = samples.select_nth_unstable(rank - 1);
    f64::from(*value)
}

/// Samples beyond the `q` quantile, the count printed beside a percentile.
pub fn beyond(samples: usize, q: f64) -> usize {
    samples - ((q * samples as f64).ceil() as usize).min(samples)
}

/// User plus system CPU time of this process so far, in seconds.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
    extern "C" {
        fn clock_gettime(clock: std::ffi::c_int, now: *mut Timespec) -> std::ffi::c_int;
    }
    let mut now = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `now` is a valid, writable timespec for the whole call, and
    // the clock id is one Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    now.sec as f64 + now.nsec as f64 * 1e-9
}
