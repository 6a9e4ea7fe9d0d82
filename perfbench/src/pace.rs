//! Calibration against the machine's speed.
//!
//! The cloud VMs this benchmark runs on change speed in phases: a fixed
//! loop runs at 1x, 1.5x, 2x or 3x its fastest time for stretches of 5
//! to 20 seconds, each vCPU on its own, without the guest seeing any
//! steal time. Short operations are therefore timed in chunks of about
//! [`CHUNK`], and each chunk is divided by the slowdown measured at its
//! ends: the thread CPU time of a fixed reference computation (benchmark
//! code, touching no program code) over [`NOMINAL_MS`]. A calibrated
//! figure reads as measured on a machine where the reference takes
//! exactly [`NOMINAL_MS`]; the program's own speed moves it, the
//! machine's phase does not. Raw figures are printed next to the
//! calibrated ones.
//!
//! Multi-second multi-threaded work (training) is not calibrated: its
//! time does not scale with the reference's (a 2x slower reference came
//! with 1.2x to 1.4x slower training), so it is reported raw and
//! averaged over several calls instead.
//!
//! Linux only, like the rest of the benchmark: it reads the thread CPU
//! clock and pins threads through the C library.

use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Reference time of a machine at slowdown 1, ms. Calibrated figures
/// are in the units of such a machine.
pub const NOMINAL_MS: f64 = 1.0;

/// Wall time of one chunk of operations between two reference runs.
pub const CHUNK: Duration = Duration::from_millis(50);

/// Entries of the reference's lookup table (128 KiB).
const TABLE: usize = 1 << 14;

/// Side of the reference's square matrices.
const SIDE: usize = 48;

/// CPU time of the calling thread, seconds. Unlike wall time it leaves
/// out the time the thread waited for a CPU in the guest, so a reference
/// run measures the CPU's speed, not how busy the other threads keep it.
fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The fixed reference computation: random reads and writes over a
/// lookup table plus small dense matrix products, a mix like the
/// program's (feature lookups and MLP layers). About 1 ms at full speed
/// on a 2-vCPU cloud VM.
pub struct Reference {
    table: Vec<u64>,
    a: Vec<f32>,
    c: Vec<f32>,
}

impl Reference {
    /// Buffers allocated once, so a run does no allocation.
    pub fn new() -> Reference {
        Reference {
            table: vec![0; TABLE],
            a: (0..SIDE * SIDE).map(|i| (i % 13) as f32 * 0.1).collect(),
            c: vec![0.0; SIDE * SIDE],
        }
    }

    /// Run the computation once; its thread CPU time in ms.
    pub fn run_ms(&mut self) -> f64 {
        let started = thread_cpu_s();
        let mask = TABLE - 1;
        let mut x = 0x1234_5678_u64;
        let mut acc = 0u64;
        for _ in 0..150_000 {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^= z >> 27;
            let j = z as usize & mask;
            self.table[j] ^= z;
            acc = acc.wrapping_add(self.table[(j * 7 + 3) & mask]);
        }
        black_box(acc);
        for _ in 0..8 {
            for i in 0..SIDE {
                for k in 0..SIDE {
                    let aik = self.a[i * SIDE + k];
                    for j in 0..SIDE {
                        self.c[i * SIDE + j] += aik * self.a[k * SIDE + j];
                    }
                }
            }
            black_box(&mut self.c);
        }
        (thread_cpu_s() - started) * 1e3
    }
}

/// Slowdown of a machine whose reference run took `reference_ms`.
pub fn slowdown(reference_ms: f64) -> f64 {
    reference_ms / NOMINAL_MS
}

/// A duration measured at a known slowdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Wall seconds as measured.
    pub secs: f64,
    /// Machine slowdown while it was measured.
    pub slowdown: f64,
}

impl Timed {
    /// Seconds at slowdown 1.
    pub fn calibrated(&self) -> f64 {
        self.secs / self.slowdown
    }
}

/// Wall seconds of each sample.
pub fn raw(samples: &[Timed]) -> Vec<f64> {
    samples.iter().map(|t| t.secs).collect()
}

/// Calibrated seconds of each sample.
pub fn calibrated(samples: &[Timed]) -> Vec<f64> {
    samples.iter().map(Timed::calibrated).collect()
}

/// Where a [`Pace`] runs the reference.
enum Meter {
    /// On the calling thread: work that runs on that thread.
    Here(Reference),
    /// On every CPU at once, while the caller waits: work spread over
    /// the CPUs by other threads.
    EveryCpu(Cpus),
}

/// Calibration of operations timed in chunks on the calling thread:
/// the reference runs between chunks, and a chunk's slowdown is the
/// mean of the readings before and after it.
pub struct Pace {
    meter: Meter,
    last: f64,
    slowdowns: Vec<f64>,
}

impl Pace {
    /// Calibrate work done on the calling thread.
    pub fn here() -> Pace {
        Pace::with(Meter::Here(Reference::new()))
    }

    /// Calibrate work the calling thread hands to threads on every CPU.
    pub fn every_cpu() -> Pace {
        Pace::with(Meter::EveryCpu(Cpus::start()))
    }

    fn with(meter: Meter) -> Pace {
        let mut pace = Pace {
            meter,
            last: 0.0,
            slowdowns: Vec::new(),
        };
        pace.read(); // warm the buffers
        pace.restart();
        pace
    }

    fn read(&mut self) -> f64 {
        match &mut self.meter {
            Meter::Here(reference) => slowdown(reference.run_ms()),
            Meter::EveryCpu(cpus) => {
                let per_cpu: Vec<f64> = cpus.run_ms().into_iter().map(slowdown).collect();
                spread_slowdown(&per_cpu).expect("at least one CPU")
            }
        }
    }

    /// Start a chunk now, after work that is not calibrated here.
    pub fn restart(&mut self) {
        self.last = self.read();
    }

    /// Close the chunk that started at the previous call (or at
    /// [`Pace::restart`]); returns its slowdown.
    pub fn slowdown(&mut self) -> f64 {
        let now = self.read();
        let value = (self.last + now) / 2.0;
        self.last = now;
        self.slowdowns.push(value);
        value
    }

    /// Time `f` as one chunk, started now.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        self.restart();
        let started = Instant::now();
        let value = f();
        let secs = started.elapsed().as_secs_f64();
        (
            value,
            Timed {
                secs,
                slowdown: self.slowdown(),
            },
        )
    }

    /// Every chunk's slowdown so far.
    pub fn slowdowns(&self) -> &[f64] {
        &self.slowdowns
    }
}

/// One thread pinned to each CPU the process may use, each running the
/// reference when asked.
struct Cpus {
    go: Vec<Sender<()>>,
    done: Receiver<f64>,
    handles: Vec<JoinHandle<()>>,
}

impl Cpus {
    fn start() -> Cpus {
        let (done_tx, done) = channel();
        let (mut go, mut handles) = (Vec::new(), Vec::new());
        for cpu in allowed_cpus() {
            let (go_tx, go_rx) = channel::<()>();
            let done_tx = done_tx.clone();
            handles.push(std::thread::spawn(move || {
                pin_to(cpu);
                let mut reference = Reference::new();
                while go_rx.recv().is_ok() {
                    if done_tx.send(reference.run_ms()).is_err() {
                        return;
                    }
                }
            }));
            go.push(go_tx);
        }
        Cpus { go, done, handles }
    }

    /// Run the reference on every CPU at once; each run's ms.
    fn run_ms(&mut self) -> Vec<f64> {
        for go in &self.go {
            go.send(()).expect("reference thread alive");
        }
        (0..self.go.len())
            .map(|_| self.done.recv().expect("reference thread alive"))
            .collect()
    }
}

impl Drop for Cpus {
    fn drop(&mut self) {
        self.go.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Slowdown of work spread over CPUs with the given slowdowns: the
/// harmonic mean, since each CPU does work at the inverse of its
/// slowdown. `None` without CPUs.
pub fn spread_slowdown(per_cpu: &[f64]) -> Option<f64> {
    (!per_cpu.is_empty())
        .then(|| per_cpu.len() as f64 / per_cpu.iter().map(|s| 1.0 / s).sum::<f64>())
}

/// The CPUs this process may run on.
fn allowed_cpus() -> Vec<usize> {
    let mut set = CpuSet { bits: [0; 16] };
    // SAFETY: `set` is a valid, writable mask of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    let cpus: Vec<usize> = (0..1024)
        .filter(|&cpu| rc == 0 && set.bits[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect();
    if cpus.is_empty() {
        vec![0]
    } else {
        cpus
    }
}

/// Pin the calling thread to `cpu`. Should that fail, the thread stays
/// unpinned and measures whichever CPU it runs on.
fn pin_to(cpu: usize) {
    let mut set = CpuSet { bits: [0; 16] };
    set.bits[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a valid mask of the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
}

/// A `cpu_set_t` of 1024 CPUs.
#[repr(C)]
struct CpuSet {
    bits: [u64; 16],
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_divides_by_slowdown() {
        let t = Timed {
            secs: 3.0,
            slowdown: 1.5,
        };
        assert!((t.calibrated() - 2.0).abs() < 1e-12);
        assert_eq!(raw(&[t]), vec![3.0]);
        assert_eq!(calibrated(&[t]), vec![2.0]);
        assert_eq!(slowdown(2.0 * NOMINAL_MS), 2.0);
    }

    #[test]
    fn spread_slowdown_is_the_harmonic_mean() {
        assert_eq!(spread_slowdown(&[]), None);
        assert_eq!(spread_slowdown(&[2.0]), Some(2.0));
        // Speeds 1 and 1/3 add up to 4/3 of one CPU's work over two.
        assert!((spread_slowdown(&[1.0, 3.0]).unwrap() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn paces_time_chunks_and_stop() {
        let mut reference = Reference::new();
        let ms = reference.run_ms();
        assert!(ms > 0.0 && ms < 1_000.0, "{ms}");
        for mut pace in [Pace::here(), Pace::every_cpu()] {
            let (value, chunk) = pace.time(|| 7);
            assert_eq!(value, 7);
            assert!(chunk.slowdown > 0.0 && chunk.secs >= 0.0);
            assert!(pace.slowdown() > 0.0);
            assert_eq!(pace.slowdowns().len(), 2);
        }
        assert!(!allowed_cpus().is_empty());
    }
}
