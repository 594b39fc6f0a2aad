//! The two serving workloads: model shape, quantization, scheduler
//! configuration, and the seeded arrival trace each one replays.

use figlut_model::calibrate::{quantize_model, to_packed, Method};
use figlut_model::corpus::{generate, Corpus};
use figlut_model::rng::Rng;
use figlut_model::{ModelConfig, Transformer};
use figlut_serve::{Policy, Request, Sampling, ServeConfig, Trace};
use std::time::Instant;

/// A named traffic mix (see README.md for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// d=256 ShiftAdd-Q3, short prompts, long outputs, B up to 16,
    /// monolithic prefill.
    DecodeHeavy,
    /// d=128 RTN-Q4 as BCQ-with-offset, long prompts sharing a 40-token
    /// prefix, 2–4 token outputs, chunked prefill of 64 rows, B up to 4,
    /// and a block pool small enough to force preempt/restore.
    PrefillHeavy,
}

/// A workload name that is not one of [`Workload::ALL`].
#[derive(Debug, PartialEq, Eq)]
pub struct UnknownWorkload(pub String);

impl std::fmt::Display for UnknownWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = Workload::ALL.iter().map(Workload::name).collect();
        write!(
            f,
            "unknown workload '{}' (expected one of: {})",
            self.0,
            names.join(", ")
        )
    }
}

/// prefill-heavy's block-pool cap, in blocks of 16 rows: less than two
/// full-length sessions, so prefilling a long prompt next to decoding
/// sessions preempts them.
const POOL_BLOCKS: usize = 14;

/// The arrival-trace shape of a workload. Every request's prompt is a
/// shared prefix (BOS alone when `prefix_len` is 1) plus a private tail.
struct Shape {
    requests: usize,
    /// Mean of the exponential inter-arrival gap, in virtual ticks.
    mean_gap: f64,
    prefix_len: usize,
    tail_len: (usize, usize),
    new_tokens: (usize, usize),
}

/// Wall-clock split of one model set-up.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    /// `Transformer::teacher`.
    pub teacher_s: f64,
    /// Calibration corpus (ShiftAdd only) plus `quantize_model`.
    pub quantize_s: f64,
    /// `to_packed`: BCQ packing and one `ExecPlan` per linear.
    pub pack_s: f64,
}

impl SetupTimes {
    /// Whole set-up time.
    pub fn total(&self) -> f64 {
        self.teacher_s + self.quantize_s + self.pack_s
    }
}

impl Workload {
    /// Every workload the binary runs.
    pub const ALL: [Workload; 2] = [Workload::DecodeHeavy, Workload::PrefillHeavy];

    /// The command-line name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::DecodeHeavy => "decode-heavy",
            Workload::PrefillHeavy => "prefill-heavy",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Result<Self, UnknownWorkload> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| UnknownWorkload(name.to_string()))
    }

    /// The served model's architecture.
    pub fn model_config(&self) -> ModelConfig {
        let (d_model, layers, heads) = match self {
            Workload::DecodeHeavy => (256, 4, 8),
            Workload::PrefillHeavy => (128, 4, 4),
        };
        ModelConfig {
            vocab: 96,
            d_model,
            layers,
            heads,
            ffn: 4 * d_model,
            max_seq: 128,
        }
    }

    /// Weight quantization. RTN output is uniform INT; `to_packed` turns
    /// it into BCQ-with-offset (paper Eq. 3) for the same LUT engine.
    pub fn method(&self) -> Method {
        match self {
            Workload::DecodeHeavy => Method::ShiftAdd { bits: 3 },
            Workload::PrefillHeavy => Method::Rtn { bits: 4 },
        }
    }

    /// Scheduler settings. Paging is on everywhere, because the stepping
    /// clock is the `force_preempt` hook and the scheduler only calls it
    /// with paging on.
    pub fn serve_config(&self) -> ServeConfig {
        match self {
            Workload::DecodeHeavy => {
                ServeConfig::new(16, Policy::PrefillPriority).with_block_size(16)
            }
            Workload::PrefillHeavy => ServeConfig::new(4, Policy::PrefillPriority)
                .with_prefill_chunk(64)
                .with_block_size(16)
                .with_pool_blocks(POOL_BLOCKS),
        }
    }

    fn shape(&self) -> Shape {
        match self {
            Workload::DecodeHeavy => Shape {
                requests: 40,
                mean_gap: 4.0,
                prefix_len: 1,
                tail_len: (3, 11),
                new_tokens: (24, 48),
            },
            Workload::PrefillHeavy => Shape {
                requests: 40,
                mean_gap: 20.0,
                prefix_len: 40,
                tail_len: (40, 80),
                new_tokens: (2, 4),
            },
        }
    }

    fn teacher_seed(&self) -> u64 {
        match self {
            Workload::DecodeHeavy => 0xdec0,
            Workload::PrefillHeavy => 0x9f11,
        }
    }

    /// Build the served model from scratch, timing each phase. The model
    /// is fixed per workload; the seed only drives the trace.
    pub fn setup(&self) -> (Transformer, SetupTimes) {
        let t0 = Instant::now();
        let teacher = Transformer::teacher(self.model_config(), self.teacher_seed());
        let t1 = Instant::now();
        let method = self.method();
        let calib = match method {
            // RTN reads no activations.
            Method::Rtn { .. } => Corpus { sequences: vec![] },
            _ => generate(&teacher, 4, 14, 7),
        };
        let (quantized, _) = quantize_model(&teacher, &calib, method);
        let t2 = Instant::now();
        let model = to_packed(&quantized);
        let t3 = Instant::now();
        let times = SetupTimes {
            teacher_s: (t1 - t0).as_secs_f64(),
            quantize_s: (t2 - t1).as_secs_f64(),
            pack_s: (t3 - t2).as_secs_f64(),
        };
        (model, times)
    }

    /// The seeded open-loop arrival trace.
    ///
    /// Stratified sampling: prompt tails, generation budgets and
    /// exponential gaps are each an evenly spread set of values over their
    /// range (quantiles, for the gaps), put in a seeded random order. The
    /// seed changes which request gets which value, and every token, but
    /// not the totals — so the seed-to-seed spread of the modelled metrics
    /// comes from ordering alone instead of from sampling noise in a
    /// few dozen draws.
    pub fn trace(&self, cfg: &ModelConfig, seed: u64) -> Trace {
        let s = self.shape();
        let n = s.requests;
        let mut rng = Rng::new(seed ^ self.teacher_seed().rotate_left(32));
        let mut order = || {
            let mut p: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                p.swap(i, rng.below(i + 1));
            }
            p
        };
        let (tails, budgets, gaps) = (order(), order(), order());
        let spread = |k: usize, (lo, hi): (usize, usize)| lo + k * (hi - lo + 1) / n;
        let mut prefix = vec![0usize];
        prefix.extend((1..s.prefix_len).map(|_| rng.below(cfg.vocab)));
        let mut clock = 0u64;
        let requests = (0..n)
            .map(|id| {
                if id > 0 {
                    let u = (gaps[id] as f64 + 0.5) / n as f64;
                    clock += (-s.mean_gap * (1.0 - u).ln()).ceil() as u64;
                }
                let mut prompt = prefix.clone();
                let tail = spread(tails[id], s.tail_len);
                prompt.extend((0..tail).map(|_| rng.below(cfg.vocab)));
                Request {
                    id,
                    arrival: clock,
                    prompt,
                    max_new: spread(budgets[id], s.new_tokens),
                    sampling: Sampling::Greedy,
                    seed: rng.next_u64(),
                }
            })
            .collect();
        let trace = Trace { requests };
        trace.validate(cfg);
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_workload_is_a_named_error() {
        let err = Workload::parse("decode-hevy").unwrap_err();
        assert_eq!(err, UnknownWorkload("decode-hevy".into()));
        let msg = err.to_string();
        assert!(msg.contains("unknown workload 'decode-hevy'"), "{msg}");
        assert!(msg.contains("decode-heavy, prefill-heavy"), "{msg}");
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Ok(w));
        }
    }

    #[test]
    fn seed_changes_the_trace_but_not_its_shape() {
        for w in Workload::ALL {
            let cfg = w.model_config();
            let a = w.trace(&cfg, 1);
            let b = w.trace(&cfg, 2);
            assert_ne!(a, b, "{}: seed did not change the trace", w.name());
            assert_eq!(a, w.trace(&cfg, 1), "{}: trace not reproducible", w.name());
            let budget = |t: &Trace| t.requests.iter().map(|r| r.max_new).sum::<usize>();
            let prompt = |t: &Trace| t.requests.iter().map(|r| r.prompt.len()).sum::<usize>();
            assert_eq!(budget(&a), budget(&b), "{}", w.name());
            assert_eq!(prompt(&a), prompt(&b), "{}", w.name());
            // Every request fits its context, so every one must complete.
            for r in &a.requests {
                assert!(r.prompt.len() + r.max_new <= cfg.max_seq);
            }
            // ttft_ticks_p75 needs 10 requests beyond the 75th percentile.
            assert!(a.len() >= 40, "{}: {} requests", w.name(), a.len());
        }
    }
}
