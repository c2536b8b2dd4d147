//! The traced run's replay: a sample of the workload's own jobs is sent
//! directly down the stack, one public call per layer, with a span around
//! each call — lower → transpile → bind → simulate → sample → decode on the
//! gate path and lower → anneal → decode on the anneal path — followed by
//! the kernel ladder that gives `sim.*.q<N>` at every width of
//! [`LADDER`].

use std::sync::Arc;

use qml_algorithms::{maxcut_ising_program, qaoa_maxcut_program, QaoaAngles, QaoaSchedule};
use qml_anneal::{AnnealParams, SimulatedAnnealer};
use qml_backends::{
    lower_to_bqm, lower_to_circuit, AnnealBackend, Backend, GateBackend, GatePlan, TranspileCache,
    DEFAULT_SWEEPS,
};
use qml_runtime::{BackendRegistry, Runtime, Scheduler};
use qml_sim::{circuit_clone_count, CircuitView, SimScratch, Simulator};
use qml_transpile::{transpile, CouplingMap, TranspileTarget};
use qml_types::{BindingSet, DecodedCounts, ExecConfig, JobBundle, Target};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::reference::{qaoa_cut_stats, Graph};
use crate::rng::Rng;
use crate::stats::mean;
use crate::workload::{gate_context, Expect, SampleJob, Workload};

/// Widths of the kernel ladder, on both sides of `qml_sim::PARALLEL_THRESHOLD`
/// (2^14 amplitudes).
pub const LADDER: [usize; 6] = [8, 10, 12, 13, 14, 16];
/// Times the job sample is replayed.
const REPS: usize = 2;

pub type Metric = (String, f64, &'static str);

/// Timings of one replay, in microseconds per call.
#[derive(Default)]
struct Timings {
    build: Vec<f64>,
    validate: Vec<f64>,
    intent_hash: Vec<f64>,
    decode: Vec<f64>,
    expand: Vec<f64>,
    run_job: Vec<f64>,
    execute: Vec<f64>,
    bind: Vec<f64>,
    lower_circuit: Vec<f64>,
    lower_bqm: Vec<f64>,
    transpile: Vec<f64>,
    gates_out: Vec<f64>,
    swaps: Vec<f64>,
    sample: Vec<f64>,
    anneal: Vec<f64>,
    spin_updates: f64,
    anneal_seconds: f64,
}

fn exec_of(bundle: &JobBundle) -> Result<ExecConfig, String> {
    bundle
        .context
        .as_ref()
        .and_then(|c| c.exec.clone())
        .ok_or_else(|| "sample job has no exec policy".to_string())
}

fn transpile_target(target: &Target, width: usize) -> TranspileTarget {
    TranspileTarget {
        basis_gates: target.basis_gates.clone(),
        coupling_map: target
            .coupling_map
            .as_ref()
            .map(|edges| CouplingMap::new(edges, target.num_qubits.unwrap_or(0).max(width))),
    }
}

/// Lower and transpile a gate bundle into a plan, timing both calls.
fn realize(
    w: &mut Workload,
    bundle: &JobBundle,
    root: Option<usize>,
    job: u64,
    t: &mut Timings,
) -> Result<GatePlan, String> {
    let exec = exec_of(bundle)?;
    let (lowered, us) = w.tracer.time("backends.lower_circuit", root, job, || {
        lower_to_circuit(bundle)
    });
    t.lower_circuit.push(us);
    let lowered = lowered.map_err(|e| format!("lowering failed: {e}"))?;
    let target = exec
        .target
        .as_ref()
        .map(|target| transpile_target(target, bundle.total_width()))
        .unwrap_or_else(TranspileTarget::ideal);
    let level = exec.options.optimization_level;
    let (transpiled, us) = w.tracer.time("transpile.transpile", root, job, || {
        transpile(&lowered.circuit, &target, level)
    });
    t.transpile.push(us);
    let transpiled = transpiled.map_err(|e| format!("transpilation failed: {e}"))?;
    t.gates_out.push(transpiled.metrics.total_gates as f64);
    t.swaps.push(transpiled.metrics.swaps_inserted as f64);
    Ok(GatePlan::new(
        transpiled.circuit,
        lowered.symbols,
        transpiled.metrics,
        lowered.register,
        lowered.schema,
    ))
}

fn binding_values(bundle: &JobBundle) -> Result<Vec<f64>, String> {
    match &bundle.bindings {
        Some(bindings) => bindings
            .values_for(&bundle.canonical_symbols())
            .map_err(|e| format!("sample job binds badly: {e}")),
        None => Ok(Vec::new()),
    }
}

/// A realized plan with one job's binding values, shots and seed.
type BoundJob = (GatePlan, Vec<f64>, u64, u64);

fn replay_gate(
    w: &mut Workload,
    sample: &SampleJob,
    job: u64,
    t: &mut Timings,
) -> Result<BoundJob, String> {
    let bundle = &sample.bundle;
    let exec = exec_of(bundle)?;
    let root = w.tracer.open("replay.gate", None, job);
    let (valid, us) = w
        .tracer
        .time("types.validate", root, job, || bundle.validate());
    t.validate.push(us);
    valid.map_err(|e| format!("sample job is invalid: {e}"))?;
    let (_, us) = w.tracer.time("types.intent_hash", root, job, || {
        std::hint::black_box(bundle.symbolic_program_hash())
    });
    t.intent_hash.push(us);
    let plan = realize(w, bundle, root, job, t)?;
    let values = binding_values(bundle)?;
    let (bound, us) = w
        .tracer
        .time("backends.bind", root, job, || plan.bind_overlay(&values));
    t.bind.push(us);
    let bound = bound.map_err(|e| format!("binding failed: {e}"))?;
    let (state, _) = w.tracer.time("sim.statevector", root, job, || {
        Simulator::new().statevector_view(&bound)
    });
    let seed = exec.seed.unwrap_or(0);
    let (counts, us) = w.tracer.time("sim.sample", root, job, || {
        state.sample_counts(
            bound.measurement_map(),
            exec.samples,
            &mut StdRng::seed_from_u64(seed),
        )
    });
    t.sample.push(us);
    let counts = counts.map_err(|e| format!("sampling failed: {e}"))?;
    let (decoded, us) = w.tracer.time("types.decode", root, job, || {
        DecodedCounts::decode(&counts, &plan.schema, &plan.register)
    });
    t.decode.push(us);
    w.tracer.close(root);
    let decoded = decoded.map_err(|e| format!("decoding failed: {e}"))?;
    let total = decoded.total;
    w.counters.check(total == exec.samples, || {
        format!("replayed counts sum to {total}, expected {}", exec.samples)
    });
    Ok((plan, values, exec.samples, seed))
}

fn replay_anneal(
    w: &mut Workload,
    sample: &SampleJob,
    job: u64,
    t: &mut Timings,
) -> Result<(), String> {
    let bundle = &sample.bundle;
    let Expect::Anneal { reads, .. } = sample.expect else {
        return Err("anneal sample without an anneal expectation".into());
    };
    let seed = bundle
        .context
        .as_ref()
        .and_then(|c| c.anneal.as_ref())
        .and_then(|a| a.seed)
        .unwrap_or(0);
    let root = w.tracer.open("replay.anneal", None, job);
    let (lowered, us) = w
        .tracer
        .time("backends.lower_bqm", root, job, || lower_to_bqm(bundle));
    t.lower_bqm.push(us);
    let lowered = lowered.map_err(|e| format!("BQM lowering failed: {e}"))?;
    let params = AnnealParams::with_reads(reads)
        .with_sweeps(DEFAULT_SWEEPS as usize)
        .with_seed(seed);
    let (set, us) = w.tracer.time("anneal.sample", root, job, || {
        SimulatedAnnealer::new().sample(&lowered.bqm, &params)
    });
    t.anneal.push(us);
    t.anneal_seconds += us / 1e6;
    t.spin_updates += (reads * DEFAULT_SWEEPS) as f64 * lowered.bqm.num_variables() as f64;
    let (decoded, us) = w.tracer.time("types.decode", root, job, || {
        DecodedCounts::decode(&set.to_counts(), &lowered.schema, &lowered.register)
    });
    t.decode.push(us);
    w.tracer.close(root);
    let total = decoded.map_err(|e| format!("decoding failed: {e}"))?.total;
    w.counters.check(total == reads, || {
        format!("replayed reads sum to {total}, expected {reads}")
    });
    Ok(())
}

/// Rebuild a sample job's program through `qml-algorithms`.
fn build(w: &mut Workload, sample: &SampleJob, job: u64, t: &mut Timings) -> Result<(), String> {
    let (inst, schedule) = match &sample.expect {
        Expect::Gate { inst, angles, .. } => {
            let schedule = if sample.bundle.bindings.is_some() {
                QaoaSchedule::Symbolic {
                    layers: angles.len(),
                }
            } else {
                QaoaSchedule::Fixed(
                    angles
                        .iter()
                        .map(|&(gamma, beta)| QaoaAngles { gamma, beta })
                        .collect(),
                )
            };
            (*inst, Some(schedule))
        }
        Expect::Anneal { inst, .. } => (*inst, None),
    };
    let graph = w.instances[inst].program_graph.clone();
    let (built, us) = w
        .tracer
        .time("algorithms.build", None, job, || match &schedule {
            Some(schedule) => qaoa_maxcut_program(&graph, schedule),
            None => maxcut_ising_program(&graph),
        });
    t.build.push(us);
    built
        .map(|_| ())
        .map_err(|e| format!("rebuilding a program failed: {e}"))
}

/// Replay the sample; returns every replay-derived per-layer metric.
pub fn replay(w: &mut Workload, cold: bool) -> Result<Vec<Metric>, String> {
    let gate = w.sample.gate.clone();
    let anneal = w.sample.anneal.clone();
    if gate.is_empty() || anneal.is_empty() {
        return Err("the workload kept no jobs to replay".into());
    }
    let mut t = Timings::default();
    let mut job = 1u64 << 32;
    let mut plans = Vec::new();
    for rep in 0..REPS {
        for sample in &gate {
            job += 1;
            build(w, sample, job, &mut t)?;
            let plan = replay_gate(w, sample, job, &mut t)?;
            if rep == 0 {
                plans.push(plan);
            }
        }
        for sample in &anneal {
            job += 1;
            build(w, sample, job, &mut t)?;
            replay_anneal(w, sample, job, &mut t)?;
        }
    }

    // Sweep expansion, per point.
    let sweeps: Vec<qml_service::SweepRequest> = match &w.sample.sweep {
        Some(sweep) => vec![sweep.clone()],
        None => gate
            .iter()
            .map(|s| qml_service::SweepRequest::new("replay", s.bundle.clone()))
            .collect(),
    };
    for _ in 0..REPS {
        for sweep in &sweeps {
            let (jobs, us) = w.tracer.time("service.expand", None, 0, || sweep.expand());
            let n = jobs
                .map_err(|e| format!("sweep failed to expand: {e}"))?
                .len();
            t.expand.push(us / n.max(1) as f64);
        }
    }

    // Direct backend and runtime calls in the workload's cache state: warm
    // workloads on a primed cache, cold ones on an empty cache per call.
    let primed = Arc::new(TranspileCache::new());
    let backend_of = |sample: &SampleJob| -> &'static dyn Backend {
        match sample.expect {
            Expect::Gate { .. } => &GateBackend,
            Expect::Anneal { .. } => &AnnealBackend,
        }
    };
    for sample in gate.iter().chain(&anneal) {
        backend_of(sample)
            .execute_cached(&sample.bundle, &primed)
            .map_err(|e| format!("priming execution failed: {e}"))?;
    }
    let warm_runtime = Runtime::with_cache(
        Scheduler::new(BackendRegistry::with_default_backends()),
        Arc::clone(&primed),
    );
    let mut clones = 0u64;
    for _ in 0..REPS {
        for sample in gate.iter().chain(&anneal) {
            let backend = backend_of(sample);
            if matches!(sample.expect, Expect::Gate { .. }) {
                let before = circuit_clone_count();
                let (out, us) = w.tracer.time("backends.execute_warm", None, 0, || {
                    backend.execute_cached(&sample.bundle, &primed)
                });
                clones += circuit_clone_count() - before;
                out.map_err(|e| format!("warm execution failed: {e}"))?;
                t.execute.push(us);
            }
            let fresh;
            let runtime = if cold {
                fresh = Runtime::with_default_backends();
                &fresh
            } else {
                &warm_runtime
            };
            let (out, us) = w.tracer.time("runtime.run_job", None, 0, || {
                runtime
                    .submit(sample.bundle.clone())
                    .and_then(|id| runtime.run_job(id))
            });
            out.map_err(|e| format!("runtime execution failed: {e}"))?;
            t.run_job.push(us);
        }
    }

    // One device batch of up to 8 gate jobs.
    let batch: Vec<JobBundle> = gate.iter().take(8).map(|s| s.bundle.clone()).collect();
    let empty = TranspileCache::new();
    let cache = if cold { &empty } else { primed.as_ref() };
    let ((results, timings), _) = w.tracer.time("backends.execute_batch", None, 0, || {
        GateBackend.execute_batch_timed(&batch, cache)
    });
    if let Some(e) = results.iter().find_map(|r| r.as_ref().err()) {
        return Err(format!("batched execution failed: {e}"));
    }
    let member: Vec<f64> = timings
        .members
        .iter()
        .map(|d| d.as_secs_f64() * 1e6)
        .collect();

    // Amplitude-buffer growth over the gate sample, in submission order,
    // through one reused scratch as a worker would.
    let mut scratch = SimScratch::new();
    for (plan, values, shots, seed) in &plans {
        let bound = plan
            .bind_overlay(values)
            .map_err(|e| format!("binding failed: {e}"))?;
        Simulator::new()
            .run_view_with_scratch(&bound, *shots, *seed, &mut scratch)
            .map_err(|e| format!("sampling failed: {e}"))?;
    }

    let per_job = |total: f64, n: usize| total / n.max(1) as f64;
    let mut metrics: Vec<Metric> = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| metrics.push((name.to_string(), value, unit));
    put("algorithms.build_us", mean(&t.build), "us");
    put("types.validate_us", mean(&t.validate), "us");
    put("types.intent_hash_us", mean(&t.intent_hash), "us");
    put("types.decode_us", mean(&t.decode), "us");
    put("service.expand_us", mean(&t.expand), "us");
    put("runtime.run_job_us", mean(&t.run_job), "us");
    put("backends.execute_warm_us", mean(&t.execute), "us");
    put("backends.bind_us", mean(&t.bind), "us");
    put(
        "backends.batch_shared_us",
        timings.shared.as_secs_f64() * 1e6,
        "us",
    );
    put("backends.batch_member_us", mean(&member), "us");
    put("backends.lower_circuit_us", mean(&t.lower_circuit), "us");
    put("backends.lower_bqm_us", mean(&t.lower_bqm), "us");
    put("transpile.transpile_us", mean(&t.transpile), "us");
    put("transpile.gates_out", mean(&t.gates_out), "gates");
    put("transpile.swaps", mean(&t.swaps), "swaps");
    put("sim.sample_us", mean(&t.sample), "us");
    put(
        "sim.amp_allocations",
        per_job(scratch.amp_allocations() as f64, plans.len()),
        "count",
    );
    put(
        "sim.circuit_clones",
        per_job(clones as f64, t.execute.len()),
        "count",
    );
    put("anneal.sample_us", mean(&t.anneal), "us");
    put(
        "anneal.spin_updates_per_s",
        t.spin_updates / t.anneal_seconds,
        "1/s",
    );
    metrics.extend(kernel_ladder(w)?);
    Ok(metrics)
}

/// `sim.statevector_us`, `sim.ns_per_gate_amp` and the computed
/// `sim.bytes_moved_per_job` (2^N amplitudes × 16 B × gates) at every
/// ladder width, from one p = 2 QAOA plan per width. Each plan's exact
/// expected cut is checked against the reference statevector.
fn kernel_ladder(w: &mut Workload) -> Result<Vec<Metric>, String> {
    let mut rng = Rng::derive(w.seed(), 7);
    let mut metrics = Vec::new();
    // The ladder's own realization times stay out of the sample's means.
    let mut ladder_timings = Timings::default();
    for (job, &width) in LADDER.iter().enumerate() {
        let graph = Graph::random(width, 3 * width / 2, &mut rng);
        let angles = [
            (rng.range(0.05, 0.8), rng.range(0.05, 1.5)),
            (rng.range(0.05, 0.8), rng.range(0.05, 1.5)),
        ];
        let program_graph = qml_graph::Graph::from_edges(width, &graph.edges);
        let bundle = qaoa_maxcut_program(&program_graph, &QaoaSchedule::Symbolic { layers: 2 })
            .map_err(|e| format!("building a ladder program failed: {e}"))?
            .with_bindings(
                BindingSet::new()
                    .with("gamma_0", angles[0].0)
                    .with("beta_0", angles[0].1)
                    .with("gamma_1", angles[1].0)
                    .with("beta_1", angles[1].1),
            )
            .with_context(gate_context(width, 64, job as u64, true));
        let plan = realize(w, &bundle, None, job as u64, &mut ladder_timings)?;
        let bound = plan
            .bind_overlay(&binding_values(&bundle)?)
            .map_err(|e| format!("binding failed: {e}"))?;
        let gates = plan.circuit.len() as f64;
        let reps = if width >= 14 { 2 } else { 5 };
        let mut times = Vec::new();
        let mut state = None;
        for _ in 0..reps {
            let (sv, us) = w.tracer.time("sim.statevector", None, job as u64, || {
                Simulator::new().statevector_view(&bound)
            });
            times.push(us);
            state = Some(sv);
        }
        let state = state.expect("at least one repetition");
        let exact: f64 = state
            .marginal_probabilities(bound.measurement_map())
            .iter()
            .map(|(word, p)| {
                let sides: Vec<bool> = word.chars().map(|c| c == '1').collect();
                p * f64::from(graph.cut_of_sides(&sides))
            })
            .sum();
        let reference = qaoa_cut_stats(&graph, &angles).mean;
        w.counters.check((exact - reference).abs() < 1e-6, || {
            format!(
                "q{width} plan's exact expected cut {exact} differs from the reference {reference}"
            )
        });
        let us = crate::stats::median(&times);
        let amps = (1u64 << width) as f64;
        metrics.push((format!("sim.statevector_us.q{width}"), us, "us"));
        metrics.push((
            format!("sim.ns_per_gate_amp.q{width}"),
            us * 1e3 / (gates * amps),
            "ns",
        ));
        metrics.push((
            format!("sim.bytes_moved_per_job.q{width}"),
            amps * 16.0 * gates,
            "B",
        ));
    }
    Ok(metrics)
}
