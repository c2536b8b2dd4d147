//! End-to-end and per-layer benchmark of the quantum middle layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <service_mix|width_ladder|portability_cold> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Any failed job or failed
//! check makes the exit code non-zero. See `perfbench/README.md`.

mod reference;
mod replay;
mod rng;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;

use replay::Metric;
use stats::{mean, median, percentile};
use workload::{Kind, Workload, WORKERS};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

fn end_to_end(w: &Workload, setup_s: f64, jobs_per_s: f64) -> Result<Vec<Metric>, String> {
    Ok(vec![
        ("setup_s".into(), setup_s, "s"),
        ("jobs_per_s".into(), jobs_per_s, "jobs/s"),
        (
            "submit_us_per_job".into(),
            w.submit_seconds * 1e6 / w.submitted_jobs as f64,
            "us",
        ),
        (
            "probe_latency_p50_ms".into(),
            percentile(&w.probe_latency_ms, 0.50),
            "ms",
        ),
        (
            "probe_latency_p95_ms".into(),
            percentile(&w.probe_latency_ms, 0.95),
            "ms",
        ),
        ("gate_approx_ratio".into(), mean(&w.gate_ratios), "ratio"),
        (
            "anneal_approx_ratio".into(),
            mean(&w.anneal_ratios),
            "ratio",
        ),
        ("peak_rss_mb".into(), peak_rss_mb()?, "MB"),
    ])
}

/// Per-layer figures the service reports about itself, folded over the
/// run's sessions.
fn service_layers(w: &Workload) -> Vec<Metric> {
    let sessions = w.sessions();
    let per_session = |f: &dyn Fn(&workload::SessionStats) -> Option<u64>| -> f64 {
        let values: Vec<f64> = sessions.iter().filter_map(f).map(|v| v as f64).collect();
        median(&values)
    };
    let wait = |class: &'static str, p99: bool| {
        per_session(&move |s| {
            let h = s.snapshot.latency.class_queue_wait.get(class)?;
            Some(if p99 { h.p99 } else { h.p50 })
        })
    };
    let sum = |f: &dyn Fn(&workload::SessionStats) -> u64| sessions.iter().map(f).sum::<u64>();
    let dispatched = sum(&|s| s.snapshot.service.scheduler.dispatched);
    let batches = sum(&|s| s.snapshot.service.scheduler.batches);
    let batched = sum(&|s| s.snapshot.service.scheduler.batched_jobs);
    let wall: f64 = sessions.iter().map(|s| s.wall).sum();
    let busy: f64 = sessions
        .iter()
        .flat_map(|s| s.snapshot.service.per_backend.values())
        .map(|b| b.busy_seconds)
        .sum();
    let completed = sum(&|s| s.completed);
    vec![
        (
            "service.queue_wait_p50_us.latency".into(),
            wait("latency", false),
            "us",
        ),
        (
            "service.queue_wait_p99_us.latency".into(),
            wait("latency", true),
            "us",
        ),
        (
            "service.queue_wait_p50_us.throughput".into(),
            wait("throughput", false),
            "us",
        ),
        (
            "service.queue_wait_p99_us.throughput".into(),
            wait("throughput", true),
            "us",
        ),
        (
            "service.execute_p50_us".into(),
            per_session(&|s| Some(s.snapshot.latency.class_execute.get("throughput")?.p50)),
            "us",
        ),
        (
            "service.batch_size_mean".into(),
            dispatched as f64 / (batches + dispatched - batched) as f64,
            "jobs",
        ),
        (
            "service.overhead_us_per_job".into(),
            (WORKERS as f64 * wall - busy) * 1e6 / completed as f64,
            "us",
        ),
        (
            "backends.gate_plan_misses".into(),
            sum(&|s| s.gate_misses) as f64,
            "count",
        ),
        (
            "backends.gate_plan_hits".into(),
            sum(&|s| s.gate_hits) as f64,
            "count",
        ),
        (
            "backends.anneal_plan_misses".into(),
            sum(&|s| s.anneal_misses) as f64,
            "count",
        ),
    ]
}

fn run(args: &Args) -> Result<(Workload, Vec<Metric>), String> {
    reference::self_check()?;
    let mut w = Workload::new(args.kind, args.seed, args.trace);
    w.tracer.set_enabled(false);
    let setup_s = w.setup()?;
    w.tracer.set_enabled(args.trace);
    let (jobs_per_s, untraced) = w.run(args.seconds, args.trace)?;
    if !args.trace {
        let metrics = end_to_end(&w, setup_s, jobs_per_s)?;
        return Ok((w, metrics));
    }
    let untraced = untraced.expect("a traced run measures both halves");
    let cold = args.kind == Kind::PortabilityCold;
    let mut layers = replay::replay(&mut w, cold)?;
    layers.extend(service_layers(&w));
    layers.push((
        "trace.overhead_pct".into(),
        (untraced - jobs_per_s) / untraced * 100.0,
        "%",
    ));
    Ok((w, layers))
}

fn json_number(value: f64) -> String {
    // `{}` prints the shortest representation that reads back exactly.
    format!("{value}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (w, metrics) = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let c = &w.counters;
    println!(
        "[perfbench] workload={} seed={} seconds={} trace={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "[perfbench] submits attempted={} failed={}; jobs attempted={} failed={}; \
         probes attempted={} failed={}; checks={} failed={}",
        c.submits,
        c.submits_failed,
        c.jobs,
        c.jobs_failed,
        c.probes,
        c.probes_failed,
        c.checks,
        c.check_failures.len()
    );
    for failure in c.check_failures.iter().filter(|f| !f.is_empty()) {
        println!("[perfbench] CHECK FAILED: {failure}");
    }
    for (name, value, unit) in &metrics {
        println!("[perfbench] {name} = {value:.6} {unit}");
    }
    if args.trace {
        for (layer, ms) in w.tracer.self_time_by_layer() {
            println!("[perfbench] self time {layer} = {ms:.3} ms");
        }
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace_{}_seed{}.jsonl", args.kind.name(), args.seed);
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, w.tracer.to_jsonl()))
        {
            Ok(()) => println!(
                "[perfbench] wrote {} spans to {path}",
                w.tracer.spans().len()
            ),
            Err(e) => {
                eprintln!("perfbench: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let finite = metrics.iter().all(|m| m.1.is_finite());
    if !finite {
        println!("[perfbench] a metric is not a finite number");
    }
    let correct = c.check_failures.is_empty() && finite;
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() {
            json_number(*value)
        } else {
            "null".into()
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        c.jobs, c.jobs_failed
    );
    if correct && c.jobs_failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
