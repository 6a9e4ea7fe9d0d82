//! The Zeus benchmark: three workloads (`plan`, `exec`, `hot`) timed
//! from outside through the public functions of the workspace crates.
//!
//! ```text
//! zeus-perfbench --workload <plan|exec|hot> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it runs the workload once untraced and once with spans
//! recorded around each call, times the layers that run inside
//! `Query::train` and the server directly, and reports the per-layer
//! metrics with a share table. The last line of standard output is the
//! JSON result. Short operations are calibrated against the machine's
//! speed, which changes in phases on the VMs this runs on (see [`pace`]).

mod fixture;
mod layers;
mod pace;
mod plan;
mod report;
mod serve;
mod spans;
mod stats;

use std::process::ExitCode;

use fixture::PLAN_QUERIES;
use pace::Timed;
use report::{json_line, metric, Ledger, Metric};
use stats::{
    highest_supported_percentile, median, quartiles, relative_iqr, summarize_run, Segment,
    TailWindows, MIN_BEYOND, TAIL_WINDOW,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    };
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// `setup_s`: the median of a run's calibrated set-ups.
fn setup_metric(setup_s: &[Timed]) -> Result<Metric, String> {
    let value = median(&pace::calibrated(setup_s)).ok_or("no set-ups timed")?;
    println!(
        "set-up: {} samples, raw median {:.6} s",
        setup_s.len(),
        median(&pace::raw(setup_s)).unwrap_or(0.0)
    );
    Ok(metric("setup_s", value, "s"))
}

/// Print how slow the machine ran while the operations were measured,
/// and their raw throughput.
fn print_machine(slowdowns: &[f64], (ops, secs): (u64, f64)) {
    let (q1, q3) = quartiles(slowdowns).unwrap_or((0.0, 0.0));
    println!(
        "machine slowdown over {} chunks: median {:.3}, quartiles {q1:.3} / {q3:.3}; \
         raw throughput {:.1} 1/s ({ops} operations in {secs:.2} s)",
        slowdowns.len(),
        median(slowdowns).unwrap_or(0.0),
        ops as f64 / secs.max(f64::MIN_POSITIVE),
    );
}

/// `qps`, `p50_ms` and `p99_ms` of a run (see [`summarize_run`]),
/// printing how many segments and tail windows they rest on.
fn latency_metrics(
    segments: &[Segment],
    tails: &TailWindows,
    groups: usize,
    what: &str,
) -> Result<Vec<Metric>, String> {
    let p50s: Vec<f64> = segments.iter().map(|s| s.p50_ms).collect();
    let windows = tails.p99s().len();
    println!(
        "{what}: {} segments, p50 interquartile range {:.1}% of its median; \
         {windows} tail windows x {TAIL_WINDOW} samples per group ({} samples), \
         highest percentile with {MIN_BEYOND} beyond: p{}",
        segments.len(),
        100.0 * relative_iqr(&p50s).unwrap_or(0.0),
        windows * TAIL_WINDOW * groups,
        highest_supported_percentile(TAIL_WINDOW).unwrap_or(0.0),
    );
    let (qps, p50, p99) = summarize_run(segments, tails)
        .ok_or_else(|| format!("{what}: no segments, or too few samples for a tail window"))?;
    Ok(vec![
        metric("qps", qps, "1/s"),
        metric("p50_ms", p50, "ms"),
        metric("p99_ms", p99, "ms"),
    ])
}

/// `plan_s`: the mean of per-round or per-pass planning times.
fn plan_metric(plan_s: &[f64], how: &str) -> Result<Metric, String> {
    if plan_s.is_empty() {
        return Err("no planning rounds".into());
    }
    let value = plan_s.iter().sum::<f64>() / plan_s.len() as f64;
    println!("planning ({how}): {plan_s:?} s");
    Ok(metric("plan_s", value, "s"))
}

/// The accuracy side of served answers: `(target, f1, fps)` per query.
pub(crate) fn accuracy_metrics(answers: &[(f64, f64, f64)]) -> (Metric, Vec<Metric>) {
    let n = answers.len() as f64;
    let ratio = answers.iter().map(|(t, f1, _)| f1 / t).sum::<f64>() / n;
    let met = answers.iter().filter(|(t, f1, _)| f1 >= t).count() as f64 / n;
    let at_target = answers
        .iter()
        .map(|&(t, f1, fps)| if f1 >= t { fps } else { 0.0 })
        .sum::<f64>()
        / n;
    let served = answers.iter().map(|(_, _, fps)| fps).sum::<f64>() / n;
    for (t, f1, fps) in answers {
        println!("served answer: target {t:.2}, test F1 {f1:.3}, {fps:.0} fps");
    }
    println!(
        "accuracy contract: target_met {met:.3} ratio, fps_at_target {at_target:.1} fps, \
         f1_to_target {ratio:.4} ratio"
    );
    (
        metric("f1_to_target", ratio, "ratio"),
        vec![
            metric("acc.target_met", met, "ratio"),
            metric("acc.fps_at_target", at_target, "fps"),
            metric("acc.served_fps", served, "fps"),
        ],
    )
}

/// End-to-end metrics of one untraced run, plus the accuracy figures
/// reported with the per-layer metrics.
fn end_to_end(args: &Args, ledger: &mut Ledger) -> Result<Vec<Metric>, String> {
    let off = spans::Recorder::new(false);
    let mut metrics = Vec::new();
    match args.workload.as_str() {
        "plan" => {
            let run = plan::run(args.seed, args.seconds, &off)?;
            print_machine(&run.slowdowns, run.measured);
            metrics.push(setup_metric(&run.setup_s)?);
            metrics.push(plan_metric(&run.plan_s, "raw, per round")?);
            metrics.extend(latency_metrics(
                &run.segments,
                &run.tails,
                PLAN_QUERIES.len(),
                "Query::run()",
            )?);
            let answers: Vec<_> = run
                .answers
                .iter()
                .map(|a| (a.target, a.f1, a.fps))
                .collect();
            metrics.push(accuracy_metrics(&answers).0);
            metrics.push(metric("peak_rss_mb", fixture::peak_rss_mb()?, "MB"));
            *ledger = run.ledger;
        }
        "exec" | "hot" => {
            let mode = if args.workload == "exec" {
                serve::Mode::Exec
            } else {
                serve::Mode::Hot
            };
            let run = serve::run(mode, args.seed, args.seconds, &off)?;
            print_machine(&run.slowdowns, (run.requests, run.measured_s));
            metrics.push(setup_metric(&run.setup_s)?);
            println!("raw planning passes: {:?} s", pace::raw(&run.plan_s));
            metrics.push(plan_metric(
                &pace::calibrated(&run.plan_s),
                "calibrated, per pass",
            )?);
            metrics.extend(latency_metrics(
                &run.segments,
                &run.tails,
                run.templates.len(),
                "request",
            )?);
            let answers: Vec<_> = run
                .templates
                .iter()
                .map(|t| {
                    (
                        t.ir.base.target_accuracy,
                        t.result.f1,
                        t.result.throughput_fps,
                    )
                })
                .collect();
            metrics.push(accuracy_metrics(&answers).0);
            metrics.push(metric("peak_rss_mb", run.peak_rss_mb, "MB"));
            run.server.shutdown();
            *ledger = run.ledger;
        }
        other => return Err(format!("unknown workload {other} (plan | exec | hot)")),
    }
    Ok(metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("zeus-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ledger = Ledger::default();
    let result = if args.trace {
        layers::traced(&args.workload, args.seed, args.seconds, &mut ledger)
    } else {
        end_to_end(&args, &mut ledger)
    };
    let metrics = match result {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("zeus-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &metrics {
        ledger.check(m.value.is_finite(), format!("{} is finite", m.name));
    }
    println!("{:<28} {:>16}  unit", "metric", "value");
    for m in &metrics {
        println!("{:<28} {:>16.6}  {}", m.name, m.value, m.unit);
    }
    for (what, ok) in &ledger.checks {
        println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    println!(
        "operations: {} attempted, {} succeeded, {} failed",
        ledger.attempted,
        ledger.attempted - ledger.failed,
        ledger.failed
    );
    println!("{}", json_line(&ledger, &metrics));
    ExitCode::SUCCESS
}
