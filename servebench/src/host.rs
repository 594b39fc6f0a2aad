//! Host facts and roofline probes: what the machine can deliver, to read
//! the exec kernel's measured rate against (the roofline / ECM method of
//! Alappat et al., arXiv 2002.03344).

use figlut_model::rng::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Measured host limits and the thread settings the run used.
#[derive(Clone, Debug)]
pub struct Host {
    /// Best STREAM-triad bandwidth over a few passes, GB/s (one thread,
    /// 24 bytes counted per element: two loads and one store).
    pub triad_gbps: f64,
    /// Mean latency of a dependent load chasing a random cycle through a
    /// buffer much larger than the last-level cache, ns.
    pub load_ns: f64,
    /// `figlut_exec::parallel::thread_count()`: workers per exec call.
    pub threads: usize,
    /// `std::thread::available_parallelism()`.
    pub nproc: usize,
    /// `FIGLUT_EXEC_THREADS` as set in the environment, if it was.
    pub env_threads: Option<String>,
}

/// f64 elements per triad array (16 MiB each).
const TRIAD_LEN: usize = 1 << 21;
/// usize slots in the pointer-chase buffer (32 MiB).
const CHASE_LEN: usize = 1 << 22;
/// Dependent loads timed.
const CHASE_LOADS: usize = 1 << 21;

impl Host {
    /// Run both probes and read the thread settings.
    pub fn probe() -> Self {
        Self {
            triad_gbps: triad_gbps(),
            load_ns: load_ns(),
            threads: figlut_exec::parallel::thread_count(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            env_threads: std::env::var(figlut_exec::parallel::THREADS_ENV).ok(),
        }
    }

    /// One human-readable line for the log.
    pub fn describe(&self) -> String {
        format!(
            "host: nproc {} exec_threads {} {}={} triad {:.2} GB/s load {:.1} ns",
            self.nproc,
            self.threads,
            figlut_exec::parallel::THREADS_ENV,
            self.env_threads.as_deref().unwrap_or("unset"),
            self.triad_gbps,
            self.load_ns
        )
    }
}

fn triad_gbps() -> f64 {
    let b = vec![1.5f64; TRIAD_LEN];
    let c = vec![0.25f64; TRIAD_LEN];
    let mut a = vec![0.0f64; TRIAD_LEN];
    let s = black_box(3.0);
    let mut best = f64::INFINITY;
    for _ in 0..6 {
        let t = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (3 * 8 * TRIAD_LEN) as f64 / best / 1e9
}

fn load_ns() -> f64 {
    // Sattolo's algorithm: a single cycle through every slot, so the chase
    // visits the whole buffer in random order.
    let mut next: Vec<usize> = (0..CHASE_LEN).collect();
    let mut rng = Rng::new(0x1a7e);
    for i in (1..CHASE_LEN).rev() {
        next.swap(i, rng.below(i));
    }
    let mut p = 0usize;
    for _ in 0..CHASE_LOADS / 8 {
        p = next[p]; // warm the TLB and caches a little
    }
    let t = Instant::now();
    for _ in 0..CHASE_LOADS {
        p = next[p];
    }
    black_box(p);
    t.elapsed().as_secs_f64() * 1e9 / CHASE_LOADS as f64
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// A reading of the host's cumulative CPU time and the part of it the
/// hypervisor stole (`/proc/stat`, all CPUs). Reads as zero where the file
/// is missing, so nothing counts as stolen there.
#[derive(Clone, Copy)]
pub struct Steal {
    stolen: u64,
    total: u64,
}

impl Steal {
    /// The current totals.
    pub fn now() -> Self {
        let line = std::fs::read_to_string("/proc/stat").ok().and_then(|s| {
            s.lines()
                .next()
                .filter(|l| l.starts_with("cpu "))
                .map(str::to_string)
        });
        // user nice system idle iowait irq softirq steal
        let ticks: Vec<u64> = line
            .as_deref()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|v| v.parse().unwrap_or(0))
            .collect();
        Self {
            stolen: ticks.get(7).copied().unwrap_or(0),
            total: ticks.iter().sum(),
        }
    }

    /// Share of the CPU time since `self` that was stolen.
    pub fn share_since(&self) -> f64 {
        let now = Self::now();
        let total = now.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        now.stolen.saturating_sub(self.stolen) as f64 / total as f64
    }
}
