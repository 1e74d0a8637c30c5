//! The host's momentary speed, read off a fixed reference kernel.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts by
//! 20–45% over tens of seconds, for code that does not change.  The closed
//! loop therefore reads a gauge between analyses, at most every [`PERIOD`]:
//! a short run of a fixed kernel that no change to the analyzer can touch,
//! on as many threads at once as the workload gives the analyzer.  An
//! analysis's normalized time is its wall time scaled by how much slower
//! the kernel ran around it than [`NOMINAL_SLICE_S`], the kernel's time on
//! the host the benchmark was defined on: the time the analysis would have
//! taken at that nominal speed.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Rows and columns of the kernel's dense matrix (72 KiB of `f64`).
const N: usize = 96;
/// Entries of the kernel's pointer-chasing cycle (64 KiB of `u32`).
const CYCLE: usize = 16_384;
/// Dependent loads per kernel step.
const CHASE: usize = 128;
/// Kernel steps per timed slice.
const STEPS: usize = 8;
/// Slices per reading; the first warms the caches and is not counted.
const SLICES: usize = 3;
/// Least time between two readings.
pub const PERIOD: Duration = Duration::from_millis(20);
/// Readings, nearest in time to an analysis, that give its speed.
const NEAREST: usize = 6;
/// Slice time at nominal speed: the median on the host the benchmark was
/// defined on (2-vCPU x86-64, 2.1 GHz, shared).
pub const NOMINAL_SLICE_S: f64 = 56e-6;

/// splitmix64, for the kernel's fixed data.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The reference kernel: one step multiplies a dense matrix by a vector,
/// rescales the vector, and follows a pseudo-random cycle through an
/// array, which mixes floating-point work on cached data with dependent
/// loads, as the LP kernels do.
#[derive(Clone)]
struct Kernel {
    a: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    cycle: Vec<u32>,
    at: u32,
}

impl Kernel {
    fn new() -> Kernel {
        let a = (0..N * N)
            .map(|i| 1.0 + (mix(i as u64) >> 11) as f64 / (1u64 << 53) as f64)
            .collect();
        // Sattolo's shuffle: one cycle through every entry.
        let mut cycle: Vec<u32> = (0..CYCLE as u32).collect();
        let mut state = mix(CYCLE as u64);
        for i in (1..CYCLE).rev() {
            state = mix(state);
            cycle.swap(i, (state % i as u64) as usize);
        }
        Kernel {
            a,
            x: vec![1.0; N],
            y: vec![0.0; N],
            cycle,
            at: 0,
        }
    }

    fn step(&mut self) {
        for (row, y) in self.a.chunks_exact(N).zip(&mut self.y) {
            *y = row.iter().zip(&self.x).map(|(a, x)| a * x).sum();
        }
        let top = self.y.iter().fold(0.0f64, |m, y| m.max(y.abs()));
        for (x, y) in self.x.iter_mut().zip(&self.y) {
            *x = y / top;
        }
        let mut at = self.at;
        for _ in 0..CHASE {
            at = self.cycle[at as usize];
        }
        self.at = at;
    }

    /// The fastest of the warm slices, in seconds: an interrupt or a
    /// preemption lengthens one slice, not the reading.
    fn read(&mut self) -> f64 {
        let mut best = f64::INFINITY;
        for slice in 0..SLICES {
            let start = Instant::now();
            for _ in 0..STEPS {
                self.step();
            }
            black_box((&self.x, self.at));
            if slice > 0 {
                best = best.min(start.elapsed().as_secs_f64());
            }
        }
        best
    }
}

/// One reading of the gauge.
#[derive(Debug, Clone, Copy)]
struct Reading {
    end: Instant,
    secs: f64,
}

/// The kernels, one per thread the analyzer runs, and their readings.
pub struct Gauge {
    kernels: Vec<Kernel>,
    readings: Vec<Reading>,
}

impl Gauge {
    /// A gauge that runs the kernel on `threads` threads at once.
    pub fn new(threads: usize) -> Gauge {
        Gauge {
            kernels: vec![Kernel::new(); threads.max(1)],
            readings: Vec::new(),
        }
    }

    /// Reads the gauge: the slowest thread's time, since the analyzer's
    /// parallel work waits for its slowest part too.
    pub fn read(&mut self) {
        let secs = match self.kernels.as_mut_slice() {
            [one] => one.read(),
            many => std::thread::scope(|s| {
                let handles: Vec<_> = many.iter_mut().map(|k| s.spawn(|| k.read())).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("the kernel does not panic"))
                    .fold(0.0, f64::max)
            }),
        };
        self.readings.push(Reading {
            end: Instant::now(),
            secs,
        });
    }

    /// Reads the gauge unless the last reading ended less than [`PERIOD`]
    /// ago; says whether it read.
    pub fn tick(&mut self) -> bool {
        match self.readings.last() {
            Some(last) if last.end.elapsed() < PERIOD => false,
            _ => {
                self.read();
                true
            }
        }
    }

    /// How many times faster than nominal the host ran from `start` to
    /// `end`: the nominal slice time over the median of the [`NEAREST`]
    /// readings closest in time to that interval.
    pub fn speed(&self, start: Instant, end: Instant) -> f64 {
        let distance = |r: &&Reading| {
            if r.end < start {
                start - r.end
            } else {
                r.end.saturating_duration_since(end)
            }
        };
        let mut near: Vec<&Reading> = self.readings.iter().collect();
        near.sort_by_key(distance);
        let secs: Vec<f64> = near.iter().take(NEAREST).map(|r| r.secs).collect();
        NOMINAL_SLICE_S / crate::stats::median(&secs).expect("the gauge has readings")
    }

    /// Median reading over the whole run.
    pub fn median_slice_s(&self) -> Option<f64> {
        let all: Vec<f64> = self.readings.iter().map(|r| r.secs).collect();
        crate::stats::median(&all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cycle_visits_every_entry() {
        let k = Kernel::new();
        let mut at = 0u32;
        for n in 1..=CYCLE {
            at = k.cycle[at as usize];
            assert_eq!(at == 0, n == CYCLE);
        }
    }

    #[test]
    fn speed_comes_from_the_nearest_readings_only() {
        let mut g = Gauge::new(1);
        let t0 = Instant::now();
        let mut push = |ms: u64, secs: f64| {
            g.readings.push(Reading {
                end: t0 + Duration::from_millis(ms),
                secs,
            })
        };
        // A slow stretch long before, then the readings around 10 s.
        for i in 0..100 {
            push(i, 1.0);
        }
        for i in 0..NEAREST as u64 {
            push(9_000 + 100 * i, 2e-4);
        }
        let at = t0 + Duration::from_secs(10);
        let speed = g.speed(at, at + Duration::from_millis(50));
        assert!((speed - NOMINAL_SLICE_S / 2e-4).abs() < 1e-12, "{speed}");
    }

    #[test]
    fn a_two_thread_reading_is_timed() {
        let mut g = Gauge::new(2);
        g.read();
        let now = Instant::now();
        let speed = g.speed(now, now);
        assert!(speed.is_finite() && speed > 0.0);
    }
}
