//! The benchmark's clock, and a reference for how fast the host runs.
//!
//! Every time the benchmark reports is read from the CPU clock of the
//! calling thread. It stops while the thread is not running: the guest
//! kernel subtracts the time the hypervisor gives the virtual CPU to other
//! machines (steal time), and a descheduled thread accrues nothing. On the
//! two-vCPU virtual machine this benchmark was built on, hypervisor steal of
//! 5–20% came and went over minutes, and wall-clock predict p99 of one seed
//! ranged from 7 to 39 ms between runs. The benchmark thread spins instead of
//! sleeping, so idle time between arrivals accrues on the clock like wall
//! time does. Work the thread does itself — page faults, system calls,
//! cache misses — is counted.

/// Nanoseconds of CPU time the calling thread has used.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_ns() -> u64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Nanoseconds of CPU time the whole process has used since it started.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_ns() -> u64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// `struct timespec` on 64-bit Linux: `time_t` and `long` are both 64 bits.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_clock(id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` with the C layout
    // of 64-bit Linux, and both clock ids are defined by Linux, so
    // `clock_gettime` writes only into `ts`.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Elsewhere the benchmark falls back to wall time since first use.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_ns() -> u64 {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    START
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

/// Elsewhere the benchmark falls back to wall time since first use.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_ns() -> u64 {
    thread_ns()
}

/// A fixed burst of CPU work owned by the benchmark, timed on the thread's
/// CPU clock to measure how fast the host runs right now.
///
/// The CPU clock removes time the host takes away, but not a slower CPU: on
/// the host this benchmark was built on, runs minutes apart fell into a
/// fast and a slow spell, about 1.45× apart, that scaled set-up time,
/// latency and throughput alike. Runs scale their times by
/// [`NOMINAL_BURST_NS`] over their median burst. The burst mixes the kinds
/// of work the program does — an L1-resident f64 product (the layer
/// kernels), parsing decimal text (the JSON delta codec) and a sum over a
/// 2 MiB buffer (weights streaming from cache) — and no program change can
/// alter it.
pub struct Reference {
    a: Vec<f64>,
    c: Vec<f64>,
    text: String,
    big: Vec<f64>,
}

const REF_N: usize = 48;

/// The burst's time in one quiet spell of the host this benchmark was built
/// on; it only sets the scale of the reported times (see [`Reference`]).
pub const NOMINAL_BURST_NS: f64 = 2.0e6;

impl Reference {
    pub fn new() -> Self {
        Reference {
            a: (0..REF_N * REF_N).map(|i| (i % 13) as f64 * 0.25).collect(),
            c: vec![0.0; REF_N * REF_N],
            text: (0..20_000)
                .map(|i| format!("{:.17e}", (i as f64).sin()))
                .collect::<Vec<_>>()
                .join(","),
            big: (0..(2 << 20) / 8).map(|i| i as f64).collect(),
        }
    }

    /// CPU nanoseconds one burst takes.
    pub fn burst_ns(&mut self) -> u64 {
        let t0 = thread_ns();
        let n = REF_N;
        for _ in 0..12 {
            for i in 0..n {
                for k in 0..n {
                    let x = self.a[i * n + k];
                    for j in 0..n {
                        self.c[i * n + j] += x * self.a[k * n + j];
                    }
                }
            }
        }
        let parsed: f64 = self
            .text
            .split(',')
            .map(|t| t.parse::<f64>().unwrap_or(0.0))
            .sum();
        let mut sum = 0.0;
        for _ in 0..4 {
            sum += self.big.iter().sum::<f64>();
        }
        std::hint::black_box((parsed, sum, self.c[n + 1]));
        thread_ns() - t0
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_clock_advances_with_work_only() {
        let t0 = super::thread_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x ^ i.wrapping_mul(0x9E37));
        }
        let busy = super::thread_ns() - t0;
        assert!(busy > 0, "spinning advances the clock");
        let t1 = super::thread_ns();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(
            super::thread_ns() - t1 < 20_000_000,
            "sleeping does not advance it (much)"
        );
    }
}
