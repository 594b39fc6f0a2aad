//! The traced run's per-layer split. Times come from replaying the run's
//! executed step shapes through each layer's public entry point, called
//! from here; counts come from `figlut_trace` counters and the report.

use figlut_exec::lut::{windows, FlatLuts};
use figlut_exec::{ExecPlan, PackedBcq};
use figlut_gemm::EngineConfig;
use figlut_model::rng::Rng;
use figlut_model::transformer::LinearWeights;
use figlut_model::{Backend, BlockPool, KvCache, Transformer};
use figlut_num::Mat;
use figlut_serve::{ServeReport, Trace};
use figlut_trace::{Event, TraceSink};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One executed step as the model saw it.
pub struct StepShape {
    /// Decode rows: `(request id, j)` consumes the request's token `j − 1`
    /// and emits token `j` (`j ≥ 1`).
    pub decode: Vec<(usize, usize)>,
    /// The prefill chunk, if any.
    pub prefill: Option<Chunk>,
}

/// A prompt chunk `prompt[pos .. pos + rows]` of request `id`.
pub struct Chunk {
    /// Request id.
    pub id: usize,
    /// First prompt position.
    pub pos: usize,
    /// Rows.
    pub rows: usize,
}

impl StepShape {
    /// Token rows of the step.
    pub fn rows(&self) -> usize {
        self.decode.len() + self.prefill.as_ref().map_or(0, |c| c.rows)
    }
}

/// Rebuild which rows every step ran from the report alone. Prefills run
/// one at a time in admission order; a step emits tokens iff it decodes or
/// finishes a prompt, and the emitted tokens' ticks tell which sessions
/// decoded. Every row count is checked against the step's `StepRecord`.
pub fn reconstruct(trace: &Trace, report: &ServeReport) -> Result<Vec<StepShape>, String> {
    let mut order: Vec<usize> = (0..report.requests.len()).collect();
    order.sort_by_key(|&i| (report.requests[i].admitted, report.requests[i].id));
    let mut decodes_at: BTreeMap<u64, Vec<(usize, usize)>> = BTreeMap::new();
    let mut first_at: HashMap<u64, usize> = HashMap::new();
    for m in &report.requests {
        for (j, &tick) in m.token_ticks.iter().enumerate() {
            if j == 0 {
                first_at.insert(tick, m.id);
            } else {
                decodes_at.entry(tick).or_default().push((m.id, j));
            }
        }
    }
    let mut emit_ticks: Vec<u64> = decodes_at.keys().chain(first_at.keys()).copied().collect();
    emit_ticks.sort_unstable();
    emit_ticks.dedup();
    let mut emits = emit_ticks.into_iter();
    let mut cursor = 0usize;
    let mut prefilled = vec![0usize; report.requests.len()];
    let mut shapes = Vec::with_capacity(report.steps.len());
    for (i, step) in report.steps.iter().enumerate() {
        let mut prompt_done = None;
        let prefill = if step.prefill_rows > 0 {
            let id = *order
                .get(cursor)
                .ok_or(format!("step {i}: prefill with every prompt done"))?;
            if prefilled[id] != step.prefill_pos {
                return Err(format!(
                    "step {i}: request {id} prefilled {} rows, step starts at {}",
                    prefilled[id], step.prefill_pos
                ));
            }
            prefilled[id] += step.prefill_rows;
            if prefilled[id] == trace.requests[id].prompt.len() {
                cursor += 1;
                prompt_done = Some(id);
            }
            Some(Chunk {
                id,
                pos: step.prefill_pos,
                rows: step.prefill_rows,
            })
        } else {
            None
        };
        let mut decode = Vec::new();
        if step.decode_rows > 0 || prompt_done.is_some() {
            let tick = emits
                .next()
                .ok_or(format!("step {i}: emits, but no tokens are left"))?;
            decode = decodes_at.remove(&tick).unwrap_or_default();
            if let Some(id) = prompt_done {
                if first_at.get(&tick) != Some(&id) {
                    return Err(format!("step {i}: request {id}'s first token is elsewhere"));
                }
            }
        }
        if decode.len() != step.decode_rows {
            return Err(format!(
                "step {i}: {} decode rows rebuilt, {} recorded",
                decode.len(),
                step.decode_rows
            ));
        }
        shapes.push(StepShape { decode, prefill });
    }
    if emits.next().is_some() || !decodes_at.is_empty() {
        return Err("tokens emitted outside every rebuilt step".into());
    }
    Ok(shapes)
}

/// The model's packed linears, layer-major.
pub fn packed_linears(model: &Transformer) -> Vec<(&PackedBcq, &ExecPlan)> {
    model
        .linear_weights()
        .into_iter()
        .filter_map(|w| match w {
            LinearWeights::Packed(p, plan) => Some((p, plan)),
            _ => None,
        })
        .collect()
}

/// Seeded activations for every (rows, in-features) pair the replay needs.
struct Inputs(HashMap<(usize, usize), Mat<f64>>);

impl Inputs {
    fn new(rows: &[usize], linears: &[(&PackedBcq, &ExecPlan)]) -> Self {
        let mut rng = Rng::new(0xac7);
        let mut map = HashMap::new();
        for &r in rows {
            for (p, _) in linears {
                map.entry((r, p.cols()))
                    .or_insert_with(|| Mat::from_fn(r, p.cols(), |_, _| rng.normal()));
            }
        }
        Self(map)
    }

    fn get(&self, rows: usize, cols: usize) -> &Mat<f64> {
        &self.0[&(rows, cols)]
    }
}

/// Σ over steps of the wall time of every linear's `exec_i` at the step's
/// row count, ms. `threads: None` is the default worker count.
pub fn exec_ms(model: &Transformer, step_rows: &[usize], threads: Option<usize>) -> f64 {
    let cfg = EngineConfig::paper_default();
    let linears = packed_linears(model);
    let inputs = Inputs::new(step_rows, &linears);
    let mut total = 0.0;
    for &rows in step_rows {
        let t = Instant::now();
        for (p, plan) in &linears {
            let x = inputs.get(rows, p.cols());
            let y = match threads {
                Some(n) => plan.exec_i_threads(x, p, &cfg, n),
                None => plan.exec_i(x, p, &cfg),
            };
            black_box(y);
        }
        total += t.elapsed().as_secs_f64();
    }
    total * 1e3
}

/// Σ over steps of one batched LUT build per linear at the step's row
/// count, ms. The window width mirrors the exec kernel's choice (the
/// widest of 8, 4, 2 that divides the group size) and the entries are
/// i32, the tier the FP16 operating point runs.
pub fn lut_ms(model: &Transformer, step_rows: &[usize]) -> f64 {
    let linears = packed_linears(model);
    let mut rng = Rng::new(0x1e7);
    let max_rows = step_rows.iter().copied().max().unwrap_or(1);
    let max_cols = linears.iter().map(|(p, _)| p.cols()).max().unwrap_or(1);
    let values: Vec<i32> = (0..max_rows * max_cols)
        .map(|_| rng.below(1 << 12) as i32 - (1 << 11))
        .collect();
    let plans: Vec<_> = linears
        .iter()
        .map(|(p, _)| {
            let gs = p.group_size();
            let mu = [8, 4, 2].into_iter().find(|m| gs % m == 0).unwrap_or(4);
            (p.cols(), windows(p.cols(), gs, mu), mu as u32)
        })
        .collect();
    let mut total = 0.0;
    for &rows in step_rows {
        let t = Instant::now();
        for (cols, wins, mu) in &plans {
            let luts = FlatLuts::build_batched(&values[..rows * cols], *cols, wins, *mu, rows);
            black_box(luts);
        }
        total += t.elapsed().as_secs_f64();
    }
    total * 1e3
}

/// Σ `ExecPlan::streamed_words` over steps and linears — what the
/// `exec_streamed_words` counter must read after the traced serve.
pub fn streamed_words(model: &Transformer, step_rows: &[usize]) -> u64 {
    let linears = packed_linears(model);
    step_rows
        .iter()
        .map(|&r| {
            linears
                .iter()
                .map(|(_, plan)| plan.streamed_words(r))
                .sum::<u64>()
        })
        .sum()
}

/// Re-run the whole schedule through `Transformer::forward_batch` — the
/// same rows, tokens and contexts each step had in the serve — timing only
/// the calls. Every emitted token is checked against the served one
/// (greedy argmax), so the replay is the run's model work. ms.
pub fn model_ms(
    model: &Transformer,
    trace: &Trace,
    report: &ServeReport,
    shapes: &[StepShape],
) -> Result<f64, String> {
    let backend = Backend::Exec(EngineConfig::paper_default());
    let mut caches: Vec<Option<KvCache>> = (0..trace.len()).map(|_| None).collect();
    let mut total = 0.0;
    for (i, shape) in shapes.iter().enumerate() {
        let mut ids: Vec<usize> = shape.decode.iter().map(|&(id, _)| id).collect();
        let mut chunks: Vec<&[usize]> = shape
            .decode
            .iter()
            .map(|&(id, j)| &report.requests[id].generated[j - 1..j])
            .collect();
        if let Some(c) = &shape.prefill {
            ids.push(c.id);
            chunks.push(&trace.requests[c.id].prompt[c.pos..c.pos + c.rows]);
        }
        let mut batch: Vec<KvCache> = ids
            .iter()
            .map(|&id| caches[id].take().unwrap_or_else(|| model.new_cache()))
            .collect();
        let t = Instant::now();
        let logits = model.forward_batch(&chunks, &mut batch, &backend);
        total += t.elapsed().as_secs_f64();
        for (row, &(id, j)) in shape.decode.iter().enumerate() {
            expect_token(&logits, row, report.requests[id].generated[j], i)?;
        }
        if let Some(c) = &shape.prefill {
            let generated = &report.requests[c.id].generated;
            if c.pos + c.rows == trace.requests[c.id].prompt.len() {
                expect_token(&logits, logits.rows() - 1, generated[0], i)?;
            }
        }
        for (id, cache) in ids.into_iter().zip(batch) {
            let m = &report.requests[id];
            let done = cache.len() >= m.prompt_len + m.generated.len() - 1;
            caches[id] = (!done).then_some(cache);
        }
    }
    Ok(total * 1e3)
}

fn expect_token(logits: &Mat<f64>, row: usize, want: usize, step: usize) -> Result<(), String> {
    let r = logits.row(row);
    let mut best = 0;
    for (k, &v) in r.iter().enumerate() {
        if v > r[best] {
            best = k;
        }
    }
    if best == want {
        Ok(())
    } else {
        Err(format!(
            "replay of step {step} emits token {best}, the serve emitted {want}"
        ))
    }
}

/// Longest KV context any row attended over in the run.
pub fn longest_context(trace: &Trace, shapes: &[StepShape]) -> usize {
    shapes
        .iter()
        .flat_map(|s| {
            let d = s
                .decode
                .iter()
                .map(|&(id, j)| trace.requests[id].prompt.len() + j);
            d.chain(s.prefill.as_ref().map(|c| c.pos + c.rows))
        })
        .max()
        .unwrap_or(1)
}

/// Steps sampled for [`attn_ctx_ms`].
const CTX_SAMPLES: usize = 12;

/// What context length costs: for evenly spaced sampled steps, one
/// `forward_batch` of the step's row count as single-token rows whose
/// caches hold `longest − 1` positions, minus the same at empty caches,
/// scaled from the sample to every step. ms.
pub fn attn_ctx_ms(model: &Transformer, step_rows: &[usize], longest: usize) -> f64 {
    let backend = Backend::Exec(EngineConfig::paper_default());
    let long = longest.clamp(1, model.cfg.max_seq) - 1;
    let mut template = model.new_cache();
    if long > 0 {
        let prompt: Vec<usize> = (0..long).map(|t| (7 * t + 1) % model.cfg.vocab).collect();
        model.prefill(&prompt, &mut template, &backend);
    }
    let stride = step_rows.len().div_ceil(CTX_SAMPLES).max(1);
    let sampled: Vec<usize> = step_rows.iter().step_by(stride).copied().collect();
    let time_at = |rows: usize, cache: &KvCache| {
        let tokens: Vec<usize> = (0..rows).map(|r| r % model.cfg.vocab).collect();
        let chunks: Vec<&[usize]> = tokens.chunks(1).collect();
        let mut caches = vec![cache.clone(); rows];
        let t = Instant::now();
        black_box(model.forward_batch(&chunks, &mut caches, &backend));
        t.elapsed().as_secs_f64()
    };
    let empty = model.new_cache();
    let diff: f64 = sampled
        .iter()
        .map(|&rows| time_at(rows, &template) - time_at(rows, &empty))
        .sum();
    diff * 1e3 * step_rows.len() as f64 / sampled.len().max(1) as f64
}

/// Median wall time of one `KvCache::swap_out` + `restore` round trip of a
/// paged session holding `len` positions, ms.
pub fn swap_round_trip_ms(model: &Transformer, block_size: usize, len: usize) -> f64 {
    let backend = Backend::Exec(EngineConfig::paper_default());
    let pool = BlockPool::for_model(&model.cfg, block_size, None);
    let mut cache = model.new_paged_cache(&pool);
    let prompt: Vec<usize> = (0..len.max(1))
        .map(|t| (5 * t + 3) % model.cfg.vocab)
        .collect();
    model.prefill(&prompt, &mut cache, &backend);
    let mut times: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            black_box(cache.swap_out());
            black_box(cache.restore());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// A trace sink that stamps the wall clock at every step span — the
/// scheduler emits one right after each step, so consecutive stamps bound
/// one step each, whatever runs.
pub struct StepClock(pub Arc<Mutex<Vec<(&'static str, Instant)>>>);

impl TraceSink for StepClock {
    fn record(&mut self, _run: u64, event: &Event<'_>) {
        if let Event::Span { name, .. } = event {
            let now = Instant::now();
            self.0
                .lock()
                .expect("step clock poisoned by a panicking serve")
                .push((name, now));
        }
    }
}
