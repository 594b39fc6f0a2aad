//! Serving benchmark for the packed-LUT path: `figlut-serve` on
//! `Backend::Exec`.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload decode-heavy --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run;
//! `--trace 1` prints the per-layer metrics of a traced run. The last
//! stdout line is one JSON object; see README.md for every metric.

mod host;
mod layers;
mod measure;
mod stats;
mod workload;

use figlut_gemm::EngineConfig;
use figlut_model::config::by_name;
use figlut_model::{Backend, Transformer};
use figlut_num::fp::FpFormat;
use figlut_serve::{serve, BatchEngine, ServeReport, StepKind, Trace};
use figlut_sim::mpu::{EngineSpec, SimEngine};
use figlut_sim::tech::Tech;
use measure::Verdict;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use workload::{SetupTimes, Workload};

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 9] = [
    ("tok_per_s", "tokens/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("vtok_per_ktick", "tokens/ktick"),
    ("ttft_ticks_p75", "ticks"),
    ("nj_per_token", "nJ"),
    ("served_ok_frac", "fraction"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("exec.calls", "count"),
    ("exec.streamed_words", "count"),
    ("exec.lut_builds", "count"),
    ("exec.ms", "ms"),
    ("exec.ms_1t", "ms"),
    ("exec.thread_gain", "x"),
    ("exec.lut_ms", "ms"),
    ("exec.ns_per_word", "ns/word"),
    ("exec.bw_frac", "fraction"),
    ("exec.share", "fraction"),
    ("model.forward_calls", "count"),
    ("model.decode_rows", "count"),
    ("model.prefill_rows", "count"),
    ("model.ms", "ms"),
    ("model.nongemm_ms", "ms"),
    ("model.attn_ctx_ms", "ms"),
    ("kv.peak_blocks", "count"),
    ("kv.shared_rows", "count"),
    ("kv.swapped_rows", "count"),
    ("kv.cow_copies", "count"),
    ("kv.swaps", "count"),
    ("kv.swap_ms_each", "ms"),
    ("serve.steps", "count"),
    ("serve.admissions", "count"),
    ("serve.preemptions", "count"),
    ("serve.restores", "count"),
    ("serve.occupancy", "fraction"),
    ("serve.queue_wait_ticks_p50", "ticks"),
    ("serve.step_ms_p50.decode", "ms"),
    ("serve.step_ms_p50.prefill", "ms"),
    ("serve.mixed_frac", "fraction"),
    ("serve.wall_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("setup.teacher_s", "s"),
    ("setup.quantize_s", "s"),
    ("setup.pack_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("host.triad_gbps", "GB/s"),
    ("host.load_ns", "ns"),
    ("host.threads", "count"),
    ("host.nproc", "count"),
    ("host.env_threads", "count"),
    ("host.steal_frac", "fraction"),
];

/// Fewest model set-ups per run; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
/// Set-ups repeat until they add up to this many seconds, so a cheap
/// set-up is a median of many.
const SETUP_SECONDS: f64 = 1.0;
/// Pooled step gaps a run needs for `step_ms_p90` (ten beyond it).
const MIN_GAPS: usize = 100;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value after {flag}"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).map_err(|e| e.to_string())?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The models set up by one run: the last one is served.
struct Setups {
    model: Transformer,
    times: Vec<SetupTimes>,
}

impl Setups {
    fn run(w: Workload) -> Self {
        let (mut model, first) = w.setup();
        let mut times = vec![first];
        while times.len() < MIN_SETUPS
            || times.iter().map(SetupTimes::total).sum::<f64>() < SETUP_SECONDS
        {
            let (m, t) = w.setup();
            times.push(t);
            model = m;
        }
        Self { model, times }
    }

    fn median(&self, f: impl Fn(&SetupTimes) -> f64) -> f64 {
        let v: Vec<f64> = self.times.iter().map(f).collect();
        stats::median(&v).expect("at least one set-up")
    }
}

/// Collected metric values, checked against a name table when printed.
struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The result line. Every metric of `table` must be present exactly
    /// once, with a finite value.
    fn json(
        &self,
        table: &[(&str, &str)],
        correct: bool,
        attempted: usize,
        failed: usize,
    ) -> Result<String, String> {
        if self.0.len() != table.len() {
            return Err(format!(
                "{} metrics for {} names",
                self.0.len(),
                table.len()
            ));
        }
        let mut body = Vec::with_capacity(table.len());
        for (name, unit) in table {
            let v = self
                .0
                .iter()
                .find(|(n, _)| n == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?
                .1;
            if !v.is_finite() {
                return Err(format!("metric {name} is {v}"));
            }
            body.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((line, true)) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok((line, false)) => {
            println!("{line}");
            eprintln!("error: correctness checks failed (see above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run one benchmark invocation; returns the result line and whether
/// every correctness check passed.
fn run(args: &Args) -> Result<(String, bool), String> {
    let w = args.workload;
    let setups = Setups::run(w);
    let model = &setups.model;
    let trace = w.trace(&model.cfg, args.seed);
    let engine = BatchEngine::new(model, Backend::Exec(EngineConfig::paper_default()));
    let cfg = w.serve_config();
    eprintln!(
        "{}: seed {} | {} requests | d={} layers={} {} | max_batch {} chunk {:?} block {:?} pool {:?}",
        w.name(),
        args.seed,
        trace.len(),
        model.cfg.d_model,
        model.cfg.layers,
        w.method().label(),
        cfg.max_batch,
        cfg.prefill_chunk,
        cfg.block_size,
        cfg.pool_blocks
    );
    let mut verdict = Verdict::default();
    let (metrics, table) = if args.trace {
        (
            traced(args, &setups, &engine, &trace, &mut verdict)?,
            &PER_LAYER[..],
        )
    } else {
        (
            untraced(args, &setups, &engine, &trace, &mut verdict)?,
            &END_TO_END[..],
        )
    };
    let attempted = trace.len();
    let line = metrics.json(table, verdict.ok(), attempted, verdict.failed(attempted))?;
    Ok((line, verdict.ok()))
}

/// `--trace 0`: the end-to-end metrics, tracing off.
fn untraced(
    args: &Args,
    setups: &Setups,
    engine: &BatchEngine<'_>,
    trace: &Trace,
    verdict: &mut Verdict,
) -> Result<Metrics, String> {
    let cfg = args.workload.serve_config();
    let measured = measure::measure(engine, trace, &cfg, args.seconds, MIN_GAPS);
    // Everything below is outside the timed region.
    let peak_rss_mb = host::peak_rss_mb()?;
    let reference = &measured.reference;
    for run in &measured.serves {
        measure::check_same_report(reference, &run.report, "hooked", verdict);
    }
    measure::check_requests(engine, trace, reference, args.seed, verdict);
    measure::check_kernels(&setups.model, verdict);

    let tokens = reference.total_tokens() as f64;
    let rates: Vec<f64> = measured.serves.iter().map(|s| tokens / s.wall_s).collect();
    let gaps = measure::step_gaps(&measured.serves);
    let ttfts: Vec<f64> = reference.requests.iter().map(|r| r.ttft() as f64).collect();
    let attempted = trace.len() as f64;
    let mut m = Metrics(Vec::new());
    m.put(
        "tok_per_s",
        stats::median(&rates).map_err(|e| e.to_string())?,
    );
    m.put(
        "step_ms_p50",
        stats::median(&gaps).map_err(|e| e.to_string())?,
    );
    m.put(
        "step_ms_p90",
        stats::tail_percentile(&gaps, 90.0).map_err(|e| format!("step_ms_p90: {e}"))?,
    );
    m.put("setup_s", setups.median(SetupTimes::total));
    m.put("peak_rss_mb", peak_rss_mb);
    m.put("vtok_per_ktick", reference.tokens_per_kilotick());
    m.put(
        "ttft_ticks_p75",
        stats::tail_percentile(&ttfts, 75.0).map_err(|e| format!("ttft_ticks_p75: {e}"))?,
    );
    m.put("nj_per_token", nj_per_token(reference, &setups.model));
    m.put(
        "served_ok_frac",
        (attempted - verdict.failed(trace.len()) as f64) / attempted,
    );
    let serves: Vec<String> = measured
        .serves
        .iter()
        .map(|s| format!("{:.3}s", s.wall_s))
        .collect();
    println!(
        "serves {} | steal {:.1}% | set-ups {} | steps {} | step gaps {} | tokens {}",
        serves.join(" "),
        measured.steal * 100.0,
        setups.times.len(),
        reference.steps.len(),
        gaps.len(),
        tokens
    );
    println!("{}", host::Host::probe().describe());
    Ok(m)
}

/// Energy per emitted token of the executed step sequence, priced at the
/// OPT-1.3B shape on FIGLUT-I at 28 nm (as `repro ext-serving` prices it),
/// nJ.
fn nj_per_token(report: &ServeReport, model: &Transformer) -> f64 {
    let opt = by_name("OPT-1.3B").expect("OPT-1.3B is in the OPT table");
    let spec = EngineSpec::paper(SimEngine::FiglutI, FpFormat::Fp16);
    report.energy_per_token_pj(&Tech::cmos28(), &spec, opt, model.average_bits()) / 1e3
}

/// `--trace 1`: the per-layer metrics of a traced run, with the traced
/// counters reconciled against the replayed step shapes.
fn traced(
    args: &Args,
    setups: &Setups,
    engine: &BatchEngine<'_>,
    trace: &Trace,
    verdict: &mut Verdict,
) -> Result<Metrics, String> {
    let w = args.workload;
    let cfg = w.serve_config();
    let model = &setups.model;
    let reference = serve(engine, trace, &cfg);
    let shapes = layers::reconstruct(trace, &reference)?;
    let rows: Vec<usize> = shapes.iter().map(layers::StepShape::rows).collect();

    // Rounds of: an untraced serve, a traced serve (which also stamps
    // every step through the step-clock sink), and the replays of its
    // step shapes. Interleaving keeps the layer times and the serve wall
    // they are compared with under the same host conditions; each is the
    // median over rounds.
    let stamps = Arc::new(Mutex::new(Vec::new()));
    let mut step_walls: Vec<(&'static str, f64)> = Vec::new();
    let mut rounds: Vec<[f64; 6]> = Vec::new();
    let mut counters: Option<figlut_trace::Counters> = None;
    let steal = host::Steal::now();
    let started = Instant::now();
    while rounds.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let report = serve(engine, trace, &cfg);
        let plain_ms = t.elapsed().as_secs_f64() * 1e3;
        measure::check_same_report(&reference, &report, "untraced", verdict);

        stamps.lock().expect("step clock poisoned").clear();
        let guard = figlut_trace::install(Box::new(layers::StepClock(stamps.clone())));
        let t = Instant::now();
        let report = serve(engine, trace, &cfg);
        let traced_ms = t.elapsed().as_secs_f64() * 1e3;
        let now = figlut_trace::snapshot();
        guard.finish().map_err(|e| format!("trace sink: {e}"))?;
        measure::check_same_report(&reference, &report, "traced", verdict);
        if counters.is_some_and(|c| c != now) {
            verdict.fail("trace counters differ between identical serves".into());
        }
        counters = Some(now);
        let s = stamps.lock().expect("step clock poisoned");
        step_walls.extend(
            s.windows(2)
                .map(|p| (p[1].0, (p[1].1 - p[0].1).as_secs_f64() * 1e3)),
        );
        drop(s);

        rounds.push([
            plain_ms,
            traced_ms,
            layers::model_ms(model, trace, &reference, &shapes)?,
            layers::exec_ms(model, &rows, None),
            layers::exec_ms(model, &rows, Some(1)),
            layers::lut_ms(model, &rows),
        ]);
    }
    let steal = steal.share_since();
    let counters = counters.expect("at least one round ran");
    measure::check_requests(engine, trace, &reference, args.seed, verdict);
    measure::check_kernels(model, verdict);
    let round_median = |i: usize| {
        let v: Vec<f64> = rounds.iter().map(|r| r[i]).collect();
        stats::median(&v).expect("at least one round ran")
    };
    let [wall_ms, traced_ms, model_ms, exec_ms, exec_ms_1t, lut_ms] =
        [0, 1, 2, 3, 4, 5].map(round_median);

    // Step walls by kind, pooled over the traced serves.
    let kind_ms = |keep: &dyn Fn(&str) -> bool| -> Result<f64, String> {
        let v: Vec<f64> = step_walls
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|&(_, ms)| ms)
            .collect();
        stats::median(&v).map_err(|e| format!("step walls: {e}"))
    };
    let decode_name = StepKind::Decode.name();

    let linears = layers::packed_linears(model).len() as u64;
    let words = layers::streamed_words(model, &rows);
    let longest = layers::longest_context(trace, &shapes);
    let attn_ctx_ms = layers::attn_ctx_ms(model, &rows, longest);
    let block = cfg.block_size.expect("every workload pages its KV cache");
    let swap_ms_each = layers::swap_round_trip_ms(model, block, longest);

    // Reconciliation: traced counters against the replayed shapes.
    let total_rows: u64 = reference.steps.iter().map(|s| s.rows() as u64).sum();
    let steps = reference.steps.len() as u64;
    let mut reconcile = |what: &str, counted: u64, expected: u64| {
        if counted != expected {
            verdict.fail(format!("{what}: counter {counted}, expected {expected}"));
        }
    };
    reconcile("exec.streamed_words", counters.exec_streamed_words, words);
    reconcile(
        "model rows",
        counters.model_decode_rows + counters.model_prefill_rows,
        total_rows,
    );
    reconcile("exec.calls", counters.exec_calls, steps * linears);
    reconcile("serve.steps", counters.serve_steps, steps);

    let paging = reference
        .paging
        .ok_or("every workload pages its KV cache, but the report has no paging stats")?;
    let waits: Vec<f64> = reference
        .requests
        .iter()
        .map(|r| r.queue_wait() as f64)
        .collect();
    let mixed = reference
        .steps
        .iter()
        .filter(|s| s.kind() == StepKind::Mixed)
        .count();
    let host = host::Host::probe();
    println!("{}", host.describe());

    let mut m = Metrics(Vec::new());
    m.put("exec.calls", counters.exec_calls as f64);
    m.put("exec.streamed_words", counters.exec_streamed_words as f64);
    m.put("exec.lut_builds", counters.exec_lut_builds as f64);
    m.put("exec.ms", exec_ms);
    m.put("exec.ms_1t", exec_ms_1t);
    m.put("exec.thread_gain", exec_ms_1t / exec_ms);
    m.put("exec.lut_ms", lut_ms);
    m.put("exec.ns_per_word", exec_ms * 1e6 / words as f64);
    m.put(
        "exec.bw_frac",
        words as f64 * 8.0 / (exec_ms / 1e3) / (host.triad_gbps * 1e9),
    );
    m.put("exec.share", exec_ms / wall_ms);
    m.put("model.forward_calls", counters.model_forward_calls as f64);
    m.put("model.decode_rows", counters.model_decode_rows as f64);
    m.put("model.prefill_rows", counters.model_prefill_rows as f64);
    m.put("model.ms", model_ms);
    m.put("model.nongemm_ms", model_ms - exec_ms);
    m.put("model.attn_ctx_ms", attn_ctx_ms);
    m.put("kv.peak_blocks", paging.peak_live_blocks as f64);
    m.put("kv.shared_rows", paging.shared_rows as f64);
    m.put("kv.swapped_rows", paging.swapped_rows as f64);
    m.put("kv.cow_copies", counters.kv_cow_copies as f64);
    m.put("kv.swaps", paging.swaps_out as f64);
    m.put("kv.swap_ms_each", swap_ms_each);
    m.put("serve.steps", counters.serve_steps as f64);
    m.put("serve.admissions", counters.serve_admissions as f64);
    m.put("serve.preemptions", counters.serve_preemptions as f64);
    m.put("serve.restores", counters.serve_restores as f64);
    m.put("serve.occupancy", reference.mean_decode_occupancy());
    m.put(
        "serve.queue_wait_ticks_p50",
        stats::median(&waits).map_err(|e| e.to_string())?,
    );
    m.put("serve.step_ms_p50.decode", kind_ms(&|k| k == decode_name)?);
    m.put("serve.step_ms_p50.prefill", kind_ms(&|k| k != decode_name)?);
    m.put("serve.mixed_frac", mixed as f64 / steps as f64);
    m.put("serve.wall_ms", wall_ms);
    m.put("serve.unattributed_ms", wall_ms - model_ms);
    m.put("setup.teacher_s", setups.median(|t| t.teacher_s));
    m.put("setup.quantize_s", setups.median(|t| t.quantize_s));
    m.put("setup.pack_s", setups.median(|t| t.pack_s));
    m.put("trace.overhead_frac", traced_ms / wall_ms - 1.0);
    m.put("host.triad_gbps", host.triad_gbps);
    m.put("host.load_ns", host.load_ns);
    m.put("host.threads", host.threads as f64);
    m.put("host.nproc", host.nproc as f64);
    m.put(
        "host.env_threads",
        host.env_threads
            .as_deref()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0.0),
    );
    m.put("host.steal_frac", steal);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use figlut_trace::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to servebench/");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(key: &str) -> Vec<(String, String)> {
        benchmark_json()
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_are_the_declared_ones() {
        assert_eq!(owned(&END_TO_END), declared("end_to_end"));
        assert_eq!(owned(&PER_LAYER), declared("per_layer"));
        let listed: Vec<Workload> = benchmark_json()
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                let name = w.get("name").and_then(Json::as_str).expect("name");
                Workload::parse(name).expect("a listed workload the binary knows")
            })
            .collect();
        assert_eq!(listed, Workload::ALL);
    }

    #[test]
    fn metric_names_use_the_allowed_alphabet() {
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(unit.len() <= 16, "{unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }

    #[test]
    fn result_line_lists_every_metric_once() {
        let mut m = Metrics(Vec::new());
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.put(name, 0.5 + i as f64 * 1e-7);
        }
        let line = m
            .json(&END_TO_END, true, 40, 0)
            .expect("complete metric set");
        let parsed = Json::parse(&line).expect("result line is JSON");
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("attempted").and_then(Json::as_num), Some(40.0));
        assert_eq!(parsed.get("failed").and_then(Json::as_num), Some(0.0));
        let Some(Json::Obj(metrics)) = parsed.get("metrics") else {
            panic!("metrics is not an object: {line}");
        };
        let keys: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let names: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(keys, names);
        assert_eq!(
            metrics[1].1.get("value").and_then(Json::as_num),
            Some(0.5 + 1e-7)
        );
    }

    #[test]
    fn incomplete_or_non_finite_metrics_are_refused() {
        let mut m = Metrics(Vec::new());
        for (name, _) in &END_TO_END[1..] {
            m.put(name, 1.0);
        }
        assert!(m.json(&END_TO_END, true, 1, 0).is_err());
        m.put(END_TO_END[0].0, f64::NAN);
        assert!(m.json(&END_TO_END, true, 1, 0).is_err());
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_named() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload prefill-heavy --seed 7 --seconds 2.5 --trace 1",
        ))
        .expect("valid arguments");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::PrefillHeavy, 7, 2.5, true)
        );
        let err = parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0"))
            .err()
            .expect("unknown workload");
        assert!(err.contains("unknown workload 'nope'"), "{err}");
        assert!(parse_args(&argv(
            "--workload decode-heavy --seed 1 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload decode-heavy --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload decode-heavy --seed 1 --seconds 1")).is_err());
    }
}
