//! The untraced serving measurement and the correctness gates every run
//! passes outside its timed region.

use crate::host;
use figlut_gemm::EngineConfig;
use figlut_model::rng::Rng;
use figlut_model::transformer::LinearWeights;
use figlut_model::Transformer;
use figlut_num::Mat;
use figlut_serve::{
    serve, serve_with_hooks, BatchEngine, FinishReason, ServeConfig, ServeHooks, ServeReport, Trace,
};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Requests whose served tokens are compared with a solo batch-1 run.
const SOLO_SAMPLE: usize = 4;
/// Fewest hooked serves per run: each step keeps at least two gaps once
/// its fastest and slowest are dropped.
const MIN_HOOKED: usize = 4;

/// One timed serve.
pub struct TimedServe {
    /// Wall time of the call, seconds.
    pub wall_s: f64,
    /// Its report (compared with the un-hooked reference).
    pub report: ServeReport,
    /// Wall gaps between consecutive steps as `(i, ms)`. Step `i`'s gap
    /// runs from the hook call just before step `i` to the one just before
    /// step `i + 1`; steps after which no session runs have no next hook
    /// call and give no gap. Empty for the un-hooked serve.
    pub gaps_ms: Vec<(usize, f64)>,
}

/// Serve `trace` once; `hooked` installs the stepping-clock hook.
fn timed_serve(
    engine: &BatchEngine<'_>,
    trace: &Trace,
    cfg: &ServeConfig,
    hooked: bool,
) -> TimedServe {
    let mut stamps: Vec<(usize, Instant)> = Vec::with_capacity(4096);
    let t0 = Instant::now();
    let report = if hooked {
        let hooks = ServeHooks {
            force_preempt: Some(Box::new(|step: usize, _running: &[usize]| {
                stamps.push((step, Instant::now()));
                Vec::new()
            })),
            ..ServeHooks::default()
        };
        serve_with_hooks(engine, trace, cfg, hooks)
    } else {
        serve(engine, trace, cfg)
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let gaps_ms = stamps
        .windows(2)
        .filter(|w| w[1].0 == w[0].0 + 1)
        .map(|w| (w[0].0, (w[1].1 - w[0].1).as_secs_f64() * 1e3))
        .collect();
    TimedServe {
        wall_s,
        report,
        gaps_ms,
    }
}

/// Requests of the trace's head served once, untimed, before measuring:
/// enough to warm every kernel shape's scratch pools.
const WARM_REQUESTS: usize = 8;

/// The untraced measurement.
pub struct Measured {
    /// The un-hooked serve's report, which every hooked one must equal.
    pub reference: ServeReport,
    /// Every timed serve, the un-hooked one first.
    pub serves: Vec<TimedServe>,
    /// Hypervisor steal over the timed serves (context for the log).
    pub steal: f64,
}

/// The step gaps of the hooked serves, pooled by [`trim_per_step`].
pub fn step_gaps(serves: &[TimedServe]) -> Vec<f64> {
    trim_per_step(serves.iter().flat_map(|s| s.gaps_ms.iter().copied()))
}

/// Pool `(step, ms)` gaps after dropping each step's fastest and slowest
/// gap. Every hooked serve runs the same step sequence (checked against
/// the reference), so a slow burst on the host that hits one serve's step
/// is dropped rather than pooled into the tail.
fn trim_per_step(gaps: impl Iterator<Item = (usize, f64)>) -> Vec<f64> {
    let mut by_step: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (step, ms) in gaps {
        by_step.entry(step).or_default().push(ms);
    }
    by_step
        .into_values()
        .flat_map(|mut v| {
            v.sort_by(f64::total_cmp);
            let n = v.len();
            v.into_iter().skip(1).take(n.saturating_sub(2))
        })
        .collect()
}

/// Warm up on the trace's first requests, time one un-hooked `serve`
/// (the reference report), then hooked serves until the timed serves add
/// up to `seconds`, at least [`MIN_HOOKED`] are hooked and
/// [`step_gaps`] holds at least `min_gaps` gaps.
pub fn measure(
    engine: &BatchEngine<'_>,
    trace: &Trace,
    cfg: &ServeConfig,
    seconds: f64,
    min_gaps: usize,
) -> Measured {
    let head = Trace {
        requests: trace.requests[..WARM_REQUESTS.min(trace.len())].to_vec(),
    };
    serve(engine, &head, cfg);
    let steal = host::Steal::now();
    let first = timed_serve(engine, trace, cfg, false);
    let reference = first.report.clone();
    let mut serves = vec![first];
    // Each further hooked serve adds one gap per step to the pool; a serve
    // that gives no gaps at all never will, so it stops the loop.
    while serves.len() <= MIN_HOOKED
        || serves.iter().map(|s| s.wall_s).sum::<f64>() < seconds
        || (step_gaps(&serves).len() < min_gaps && !serves[1].gaps_ms.is_empty())
    {
        serves.push(timed_serve(engine, trace, cfg, true));
    }
    Measured {
        reference,
        serves,
        steal: steal.share_since(),
    }
}

/// What the gates found. A failure tied to requests marks those requests;
/// any other failure (a step sequence that differs, a kernel bit mismatch,
/// a reconciliation that does not hold) fails every request.
#[derive(Default)]
pub struct Verdict {
    failed: BTreeSet<usize>,
    global: Vec<String>,
}

impl Verdict {
    /// Record a failure of request `id`.
    pub fn fail_request(&mut self, id: usize, why: String) {
        eprintln!("check failed: request {id}: {why}");
        self.failed.insert(id);
    }

    /// Record a failure not tied to one request.
    pub fn fail(&mut self, why: String) {
        eprintln!("check failed: {why}");
        self.global.push(why);
    }

    /// `true` when every gate passed.
    pub fn ok(&self) -> bool {
        self.failed.is_empty() && self.global.is_empty()
    }

    /// Requests counted as failed out of `attempted`.
    pub fn failed(&self, attempted: usize) -> usize {
        if self.global.is_empty() {
            self.failed.len()
        } else {
            attempted
        }
    }
}

/// Every request completed its budget; a seeded sample's tokens equal a
/// solo batch-1 run of the same request.
pub fn check_requests(
    engine: &BatchEngine<'_>,
    trace: &Trace,
    reference: &ServeReport,
    seed: u64,
    verdict: &mut Verdict,
) {
    if reference.requests.len() != trace.len() {
        verdict.fail(format!(
            "{} of {} requests finished",
            reference.requests.len(),
            trace.len()
        ));
        return;
    }
    for (req, m) in trace.requests.iter().zip(&reference.requests) {
        if m.id != req.id || m.reason != FinishReason::Completed || m.tokens != req.max_new {
            verdict.fail_request(
                req.id,
                format!(
                    "finished as {:?} with {} of {} tokens",
                    m.reason, m.tokens, req.max_new
                ),
            );
        }
    }
    let mut rng = Rng::new(seed ^ 0x5010_u64.wrapping_mul(0x9e37));
    let mut sample = BTreeSet::new();
    while sample.len() < SOLO_SAMPLE.min(trace.len()) {
        sample.insert(rng.below(trace.len()));
    }
    for i in sample {
        let solo = engine.solo_run(&trace.requests[i]);
        if reference.requests[i].generated != solo {
            verdict.fail_request(i, "served tokens differ from its solo run".into());
        }
    }
}

/// `other` (a hooked or traced serve) must equal the un-hooked reference.
pub fn check_same_report(
    reference: &ServeReport,
    other: &ServeReport,
    label: &str,
    verdict: &mut Verdict,
) {
    if reference == other {
        return;
    }
    if reference.steps != other.steps || reference.requests.len() != other.requests.len() {
        verdict.fail(format!(
            "{label} report: step sequence differs from un-hooked serve"
        ));
        return;
    }
    for (a, b) in reference.requests.iter().zip(&other.requests) {
        if a != b {
            verdict.fail_request(a.id, format!("{label} report differs from un-hooked serve"));
        }
    }
    if reference.paging != other.paging || reference.ticks != other.ticks {
        verdict.fail(format!("{label} report: paging or ticks differ"));
    }
}

/// For each distinct packed linear shape, `ExecPlan::exec_i` must equal the
/// FIGLUT-I datapath model `figlut_gemm::figlut::gemm_i` bit for bit.
pub fn check_kernels(model: &Transformer, verdict: &mut Verdict) {
    let cfg = EngineConfig::paper_default();
    let mut seen = BTreeSet::new();
    let mut rng = Rng::new(0x9e33);
    for w in model.linear_weights() {
        let LinearWeights::Packed(p, plan) = w else {
            verdict.fail("a linear layer is not packed".into());
            continue;
        };
        if !seen.insert(p.shape()) {
            continue;
        }
        let x = Mat::from_fn(3, p.cols(), |_, _| rng.normal());
        let fast = plan.exec_i(&x, p, &cfg);
        let exact = figlut_gemm::figlut::gemm_i(&x, &p.unpack(), &cfg);
        let same = fast.shape() == exact.shape()
            && fast
                .as_slice()
                .iter()
                .zip(exact.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            verdict.fail(format!(
                "exec_i differs from gemm_i at shape {:?}",
                p.shape()
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_step_drops_its_fastest_and_slowest_gap() {
        // Step 0 seen by four serves, one of them in a slow burst; step 1
        // by three; step 2 by two, so nothing of it is kept.
        let gaps = [
            (0, 10.0),
            (1, 5.0),
            (2, 7.0),
            (0, 11.0),
            (1, 6.0),
            (2, 8.0),
            (0, 90.0),
            (1, 4.0),
            (0, 12.0),
        ];
        assert_eq!(trim_per_step(gaps.into_iter()), vec![11.0, 12.0, 5.0]);
    }
}
