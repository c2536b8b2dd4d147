//! The three workloads and the session engine that drives them through the
//! public API of `qml-service`.
//!
//! Every workload has the same two tenants on one service with
//! [`WORKERS`] workers, driven from this single thread:
//!
//! * `bulk` streams throughput-class jobs, topped up whenever the service's
//!   queue runs low;
//! * `interactive` runs a closed loop: submit one gate probe and one anneal
//!   probe on the same instance as latency-class jobs, wait for both, and
//!   only then choose the next pair — the paper's portability comparison
//!   made interactive.
//!
//! Work is cut into sessions. A session starts a fresh service (the plan
//! cache is shared across sessions where the workload is warm), submits a
//! fixed bulk quota, keeps the interactive loop going until the service is
//! idle, and drains. The service keeps every finished job, so a fixed quota
//! per session keeps peak memory a property of the session, not of how many
//! sessions a faster build fits into the run. Outputs are checked after each
//! session, outside its measured wall time.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qml_algorithms::{
    maxcut_ising_program, qaoa_maxcut_program, PatternSearch, QaoaAngles, QaoaSchedule,
};
use qml_backends::{
    AnnealBackend, Backend, ExecutionResult, GateBackend, TranspileCache, DEFAULT_ANNEAL_ENGINE,
};
use qml_runtime::{BackendRegistry, JobId, JobStatus, Runtime, Scheduler};
use qml_service::{ObservabilitySnapshot, QmlService, ServiceConfig, SweepRequest};
use qml_types::{
    AnnealConfig, BindingSet, ContextDescriptor, DecodedValue, ExecConfig, JobBundle, ParamValue,
    ServiceClass, Target,
};

use crate::reference::{qaoa_cut_stats, CutStats, Graph};
use crate::rng::Rng;
use crate::stats::median;
use crate::trace::Tracer;

/// Service workers: one per CPU of the 2-CPU reference host.
pub const WORKERS: usize = 2;
/// Set-up is repeated this many times per run and its median reported.
const SETUP_REPS: usize = 21;
const GATE_ENGINE: &str = "gate.aer_simulator";
const OPT_LEVEL: u8 = 3;
/// A gate job's sampled mean cut must lie within this many shot-noise
/// standard errors of the reference's exact expectation.
pub const Z_TOLERANCE: f64 = 6.0;
/// The approximation ratios average the first this many gate (anneal)
/// results of the interactive tenant, a prefix fixed by the seed.
pub const RATIO_JOBS: usize = 256;
/// One interactive probe in this many is re-run alone after its session.
const ALONE_EVERY: u64 = 64;
/// Indices of the bulk and interactive input streams.
const BULK: usize = 0;
const PROBE: usize = 1;
/// No single job may take longer than this to settle.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ServiceMix,
    WidthLadder,
    PortabilityCold,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "service_mix" => Some(Kind::ServiceMix),
            "width_ladder" => Some(Kind::WidthLadder),
            "portability_cold" => Some(Kind::PortabilityCold),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::ServiceMix => "service_mix",
            Kind::WidthLadder => "width_ladder",
            Kind::PortabilityCold => "portability_cold",
        }
    }
}

/// How the bulk tenant's jobs are made.
enum BulkShape {
    /// Warm parametric sweeps: one symbolic p-layer intent per width, a pool
    /// of binding points per intent, and per chunk one sweep per intent of
    /// `bindings` points × `contexts` shot seeds.
    Sweeps {
        widths: &'static [usize],
        layers: usize,
        pool: usize,
        bindings: usize,
        contexts: usize,
    },
    /// Cold instances: each chunk draws `instances` new graphs and submits
    /// each once on the gate context and once on the anneal context.
    Fresh { instances: usize },
}

/// How the interactive tenant chooses its next probe pair.
enum ProbeShape {
    /// Pattern search over p = 1 angles on one graph, restarted on a new
    /// graph when it converges (one plan miss per restart).
    Search { width: usize },
    /// A new graph per probe pair at fixed p = 1 angles (every probe cold).
    Fresh,
}

struct Shape {
    bulk: BulkShape,
    probes: ProbeShape,
    /// Widths of cold instances, inclusive.
    fresh_widths: (usize, usize),
    /// Edge count of an `n`-vertex instance.
    edges: fn(usize) -> usize,
    bulk_shots: u64,
    probe_shots: u64,
    reads: u64,
    chunks_per_session: usize,
    /// Cold workloads start every session with an empty plan cache.
    fresh_cache: bool,
    /// Route onto a linear chain; otherwise the target is all-to-all (same
    /// basis), so the gates per job depend only on the edge count and not
    /// on where the seed puts the edges.
    routed: bool,
}

fn shape(kind: Kind) -> Shape {
    match kind {
        Kind::ServiceMix => Shape {
            bulk: BulkShape::Sweeps {
                widths: &[8],
                layers: 2,
                pool: 16,
                bindings: 16,
                contexts: 8,
            },
            probes: ProbeShape::Search { width: 8 },
            fresh_widths: (8, 8),
            edges: |_| 12,
            bulk_shots: 64,
            probe_shots: 256,
            reads: 64,
            chunks_per_session: 8,
            fresh_cache: false,
            routed: false,
        },
        Kind::WidthLadder => Shape {
            bulk: BulkShape::Sweeps {
                widths: &[10, 12, 13, 14, 16],
                layers: 2,
                pool: 4,
                bindings: 1,
                contexts: 1,
            },
            probes: ProbeShape::Search { width: 10 },
            fresh_widths: (10, 10),
            edges: |n| 3 * n / 2,
            bulk_shots: 64,
            probe_shots: 256,
            reads: 64,
            chunks_per_session: 2,
            fresh_cache: false,
            routed: true,
        },
        Kind::PortabilityCold => Shape {
            bulk: BulkShape::Fresh { instances: 4 },
            probes: ProbeShape::Fresh,
            fresh_widths: (10, 12),
            edges: |n| (0.35 * (n * (n - 1) / 2) as f64).round() as usize,
            bulk_shots: 256,
            probe_shots: 256,
            reads: 256,
            chunks_per_session: 16,
            fresh_cache: true,
            routed: true,
        },
    }
}

/// Fixed p = 1 angles of the cold QAOA jobs: close to the p = 1 optimum
/// for graphs of average degree 3–4 under `RZZ(2γ)`, `RX(2β)`.
const COLD_ANGLES: QaoaAngles = QaoaAngles {
    gamma: 0.25,
    beta: 3.0 * std::f64::consts::FRAC_PI_8,
};

/// One Max-Cut instance: the benchmark's own graph and the program's copy.
pub struct Instance {
    pub graph: Graph,
    pub program_graph: qml_graph::Graph,
}

#[derive(Debug, Clone)]
pub enum Expect {
    Gate {
        inst: usize,
        angles: Vec<(f64, f64)>,
        shots: u64,
    },
    Anneal {
        inst: usize,
        reads: u64,
    },
}

struct Tracked {
    id: JobId,
    expect: Expect,
    probe: bool,
}

/// A sweep target of the bulk tenant: one symbolic intent and its pool.
struct SweepTarget {
    inst: usize,
    base: JobBundle,
    pool: Vec<Vec<(f64, f64)>>,
}

struct SearchState {
    inst: usize,
    base: JobBundle,
    ising: JobBundle,
    search: PatternSearch,
}

/// A job kept to replay down the stack in the traced run; bulk jobs of the
/// first session also keep their service id for the batching check.
#[derive(Clone)]
pub struct SampleJob {
    pub bundle: JobBundle,
    pub expect: Expect,
    bulk_id: Option<JobId>,
}

/// Jobs kept from the first session to replay in the traced run.
#[derive(Default)]
pub struct Sample {
    pub gate: Vec<SampleJob>,
    pub anneal: Vec<SampleJob>,
    pub sweep: Option<SweepRequest>,
}

/// Per-session figures read from the service.
pub struct SessionStats {
    /// Seconds from the first submit to the last outcome.
    pub wall: f64,
    /// Jobs of both tenants that completed.
    pub completed: u64,
    /// Throughput-class jobs of the bulk tenant that completed.
    pub bulk_completed: u64,
    pub gate_misses: u64,
    pub gate_hits: u64,
    pub anneal_misses: u64,
    pub snapshot: ObservabilitySnapshot,
}

#[derive(Default)]
pub struct Counters {
    pub submits: u64,
    pub submits_failed: u64,
    pub jobs: u64,
    pub jobs_failed: u64,
    pub probes: u64,
    pub probes_failed: u64,
    pub checks: u64,
    pub check_failures: Vec<String>,
}

impl Counters {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok && self.check_failures.len() < 20 {
            self.check_failures.push(what());
        } else if !ok {
            self.check_failures.push(String::new());
        }
    }
}

pub struct Workload {
    seed: u64,
    shape: Shape,
    /// Input streams of the bulk (0) and interactive (1) tenants, kept apart
    /// so the interleaving of the two cannot change either one's inputs.
    rngs: [Rng; 2],
    pub instances: Vec<Instance>,
    optima: HashMap<usize, u32>,
    references: HashMap<(usize, Vec<u64>), CutStats>,
    targets: Vec<SweepTarget>,
    search: Option<SearchState>,
    cache: Arc<TranspileCache>,
    pub tracer: Tracer,
    pub counters: Counters,
    pub sample: Sample,
    /// Whether the batched-vs-sequential check has run.
    batch_checked: bool,
    probe_pairs: u64,
    // Timed-phase accumulators.
    pub submit_seconds: f64,
    pub submitted_jobs: u64,
    pub probe_latency_ms: Vec<f64>,
    pub gate_ratios: Vec<f64>,
    pub anneal_ratios: Vec<f64>,
    sessions: Vec<SessionStats>,
}

pub fn gate_context(width: usize, shots: u64, seed: u64, routed: bool) -> ContextDescriptor {
    let mut target = Target::linear(width);
    if !routed {
        target.coupling_map = None;
    }
    ContextDescriptor::for_gate(
        ExecConfig::new(GATE_ENGINE)
            .with_samples(shots)
            .with_seed(seed)
            .with_target(target)
            .with_optimization_level(OPT_LEVEL),
    )
}

fn anneal_context(reads: u64, seed: u64) -> ContextDescriptor {
    ContextDescriptor::for_anneal(
        DEFAULT_ANNEAL_ENGINE,
        AnnealConfig {
            num_reads: reads,
            seed: Some(seed),
            ..AnnealConfig::default()
        },
    )
}

fn binding_map(angles: &[(f64, f64)]) -> BTreeMap<String, ParamValue> {
    let mut map = BTreeMap::new();
    for (layer, &(gamma, beta)) in angles.iter().enumerate() {
        map.insert(format!("gamma_{layer}"), ParamValue::Float(gamma));
        map.insert(format!("beta_{layer}"), ParamValue::Float(beta));
    }
    map
}

fn random_angles(rng: &mut Rng, layers: usize) -> Vec<(f64, f64)> {
    (0..layers)
        .map(|_| (rng.range(0.05, 0.8), rng.range(0.05, 1.5)))
        .collect()
}

fn runtime_with(cache: &Arc<TranspileCache>) -> Runtime {
    Runtime::with_cache(
        Scheduler::new(BackendRegistry::with_default_backends()),
        Arc::clone(cache),
    )
}

fn is_terminal(status: &Option<JobStatus>) -> bool {
    !matches!(status, Some(JobStatus::Queued) | Some(JobStatus::Running))
}

/// Mean sampled cut of a result, reading each word through its decoded
/// per-vertex labels (so the decode bit order is what is checked).
fn sampled_cuts(result: &ExecutionResult, graph: &Graph) -> Option<Vec<(u32, u64)>> {
    result
        .decoded
        .counts
        .iter()
        .map(|(word, &n)| match result.decoded.decoded.get(word)? {
            DecodedValue::Bool(sides) if sides.len() == graph.n => {
                Some((graph.cut_of_sides(sides), n))
            }
            DecodedValue::Spins(spins) if spins.len() == graph.n => {
                let sides: Vec<bool> = spins.iter().map(|&s| s < 0).collect();
                Some((graph.cut_of_sides(&sides), n))
            }
            _ => None,
        })
        .collect()
}

fn mean_cut(cuts: &[(u32, u64)]) -> f64 {
    let total: u64 = cuts.iter().map(|&(_, n)| n).sum();
    cuts.iter()
        .map(|&(c, n)| f64::from(c) * n as f64)
        .sum::<f64>()
        / total.max(1) as f64
}

impl Workload {
    pub fn new(kind: Kind, seed: u64, trace: bool) -> Workload {
        Workload {
            seed,
            shape: shape(kind),
            rngs: [Rng::derive(seed, 1), Rng::derive(seed, 2)],
            instances: Vec::new(),
            optima: HashMap::new(),
            references: HashMap::new(),
            targets: Vec::new(),
            search: None,
            cache: Arc::new(TranspileCache::new()),
            tracer: Tracer::new(trace),
            counters: Counters::default(),
            sample: Sample::default(),
            batch_checked: false,
            probe_pairs: 0,
            submit_seconds: 0.0,
            submitted_jobs: 0,
            probe_latency_ms: Vec::new(),
            gate_ratios: Vec::new(),
            anneal_ratios: Vec::new(),
            sessions: Vec::new(),
        }
    }

    fn new_instance(&mut self, width: usize, stream: usize) -> usize {
        let graph = Graph::random(width, (self.shape.edges)(width), &mut self.rngs[stream]);
        let program_graph = qml_graph::Graph::from_edges(graph.n, &graph.edges);
        self.instances.push(Instance {
            graph,
            program_graph,
        });
        self.instances.len() - 1
    }

    fn fresh_width(&mut self, stream: usize) -> usize {
        let (lo, hi) = self.shape.fresh_widths;
        lo + self.rngs[stream].below(hi - lo + 1)
    }

    fn next_seed(&mut self, stream: usize) -> u64 {
        self.rngs[stream].next_u64() >> 1
    }

    fn optimum(&mut self, inst: usize) -> u32 {
        let graph = &self.instances[inst].graph;
        *self.optima.entry(inst).or_insert_with(|| graph.max_cut())
    }

    fn reference(&mut self, inst: usize, angles: &[(f64, f64)]) -> CutStats {
        let key = (
            inst,
            angles
                .iter()
                .flat_map(|&(g, b)| [g.to_bits(), b.to_bits()])
                .collect(),
        );
        let graph = &self.instances[inst].graph;
        *self
            .references
            .entry(key)
            .or_insert_with(|| qaoa_cut_stats(graph, angles))
    }

    // ----- inputs -------------------------------------------------------

    /// Draw the bulk graphs and binding pools (the benchmark's own inputs,
    /// made before any timing starts).
    fn draw_inputs(&mut self) {
        if let BulkShape::Sweeps {
            widths,
            layers,
            pool,
            ..
        } = self.shape.bulk
        {
            for &width in widths {
                let inst = self.new_instance(width, BULK);
                let pool = (0..pool)
                    .map(|_| random_angles(&mut self.rngs[BULK], layers))
                    .collect();
                self.targets.push(SweepTarget {
                    inst,
                    // Replaced by the program-built intent during set-up.
                    base: JobBundle::new("unbuilt", Vec::new(), Vec::new()),
                    pool,
                });
            }
        }
    }

    /// Build the bulk intents through `qml-algorithms`.
    fn build_targets(&mut self) -> Result<(), String> {
        let layers = match self.shape.bulk {
            BulkShape::Sweeps { layers, .. } => layers,
            BulkShape::Fresh { .. } => return Ok(()),
        };
        for target in &mut self.targets {
            target.base = qaoa_maxcut_program(
                &self.instances[target.inst].program_graph,
                &QaoaSchedule::Symbolic { layers },
            )
            .map_err(|e| format!("building the bulk intent failed: {e}"))?;
        }
        Ok(())
    }

    /// The cold gate and anneal bundles of one instance.
    fn cold_pair(
        &mut self,
        inst: usize,
        class: ServiceClass,
        shots: u64,
        stream: usize,
    ) -> Result<[(JobBundle, Expect); 2], String> {
        let width = self.instances[inst].graph.n;
        let (gate_seed, anneal_seed) = (self.next_seed(stream), self.next_seed(stream));
        let graph = &self.instances[inst].program_graph;
        let gate = qaoa_maxcut_program(graph, &QaoaSchedule::Fixed(vec![COLD_ANGLES]))
            .map_err(|e| format!("building a QAOA bundle failed: {e}"))?
            .with_context(gate_context(width, shots, gate_seed, self.shape.routed))
            .with_service_class(class);
        let ising = maxcut_ising_program(graph)
            .map_err(|e| format!("building an Ising bundle failed: {e}"))?
            .with_context(anneal_context(self.shape.reads, anneal_seed))
            .with_service_class(class);
        Ok([
            (
                gate,
                Expect::Gate {
                    inst,
                    angles: vec![(COLD_ANGLES.gamma, COLD_ANGLES.beta)],
                    shots,
                },
            ),
            (
                ising,
                Expect::Anneal {
                    inst,
                    reads: self.shape.reads,
                },
            ),
        ])
    }

    /// The next interactive probe pair (gate, anneal).
    fn next_probe(&mut self) -> Result<[(JobBundle, Expect); 2], String> {
        let shots = self.shape.probe_shots;
        let class = ServiceClass::latency();
        let width = match self.shape.probes {
            ProbeShape::Fresh => {
                let width = self.fresh_width(PROBE);
                let inst = self.new_instance(width, PROBE);
                return self.cold_pair(inst, class, shots, PROBE);
            }
            ProbeShape::Search { width } => width,
        };
        let angles = loop {
            if let Some(state) = &mut self.search {
                if let Some(angles) = state.search.next_angles() {
                    break angles;
                }
            }
            let inst = self.new_instance(width, PROBE);
            let graph = &self.instances[inst].program_graph;
            let base = qaoa_maxcut_program(graph, &QaoaSchedule::Symbolic { layers: 1 })
                .map_err(|e| format!("building the probe intent failed: {e}"))?;
            let ising = maxcut_ising_program(graph)
                .map_err(|e| format!("building the probe Ising bundle failed: {e}"))?;
            // Start near the p = 1 optimum so every search spends its
            // evaluations close to the best cut the graph allows.
            let init = QaoaAngles {
                gamma: COLD_ANGLES.gamma + self.rngs[PROBE].range(-0.05, 0.05),
                beta: COLD_ANGLES.beta + self.rngs[PROBE].range(-0.05, 0.05),
            };
            self.search = Some(SearchState {
                inst,
                base,
                ising,
                search: PatternSearch::new(init, 0.1, 0.025),
            });
        };
        let (gate_seed, anneal_seed) = (self.next_seed(PROBE), self.next_seed(PROBE));
        let reads = self.shape.reads;
        let state = self.search.as_ref().expect("search state was just set");
        let gate = state
            .base
            .clone()
            .with_bindings(
                BindingSet::new()
                    .with("gamma_0", angles.gamma)
                    .with("beta_0", angles.beta),
            )
            .with_context(gate_context(width, shots, gate_seed, self.shape.routed))
            .with_service_class(class);
        let ising = state
            .ising
            .clone()
            .with_context(anneal_context(reads, anneal_seed))
            .with_service_class(class);
        Ok([
            (
                gate,
                Expect::Gate {
                    inst: state.inst,
                    angles: vec![(angles.gamma, angles.beta)],
                    shots,
                },
            ),
            (
                ising,
                Expect::Anneal {
                    inst: state.inst,
                    reads,
                },
            ),
        ])
    }

    // ----- submission ---------------------------------------------------

    /// Submit one bundle, timing the call; failures are counted, not fatal.
    fn submit_one(
        &mut self,
        svc: &QmlService,
        tenant: &str,
        bundle: JobBundle,
        parent: Option<usize>,
    ) -> Option<JobId> {
        self.counters.submits += 1;
        let start = Instant::now();
        let span = self.tracer.open("service.submit", parent, 0);
        let outcome = svc.submit(tenant, bundle);
        self.tracer.close(span);
        self.submit_seconds += start.elapsed().as_secs_f64();
        self.submitted_jobs += 1;
        self.counters.jobs += 1;
        match outcome {
            Ok((_, id)) => Some(id),
            Err(e) => {
                self.counters.submits_failed += 1;
                self.counters.jobs_failed += 1;
                self.counters
                    .check(false, || format!("submit rejected by the service: {e}"));
                None
            }
        }
    }

    /// Submit the next bulk chunk; returns the tracked jobs.
    fn submit_chunk(
        &mut self,
        svc: &QmlService,
        session: u64,
        chunk: u64,
        parent: Option<usize>,
    ) -> Result<Vec<Tracked>, String> {
        let mut tracked = Vec::new();
        match self.shape.bulk {
            BulkShape::Sweeps {
                bindings, contexts, ..
            } => {
                let shots = self.shape.bulk_shots;
                for t in 0..self.targets.len() {
                    let (inst, width) = {
                        let target = &self.targets[t];
                        (target.inst, self.instances[target.inst].graph.n)
                    };
                    // Walk the pool so consecutive chunks bind different points.
                    let points: Vec<Vec<(f64, f64)>> = (0..bindings)
                        .map(|k| {
                            let pool = &self.targets[t].pool;
                            pool[(chunk as usize * bindings + k) % pool.len()].clone()
                        })
                        .collect();
                    let mut sweep = SweepRequest::new(
                        format!("bulk-s{session}-c{chunk}-t{t}"),
                        self.targets[t].base.clone(),
                    );
                    for point in &points {
                        sweep = sweep.with_binding_set(binding_map(point));
                    }
                    for _ in 0..contexts {
                        let seed = self.next_seed(BULK);
                        sweep =
                            sweep.with_context(gate_context(width, shots, seed, self.shape.routed));
                    }
                    let keep_sample = session == 0 && chunk == 0;
                    if keep_sample && self.sample.sweep.is_none() {
                        self.sample.sweep = Some(sweep.clone());
                    }
                    let n_jobs = (points.len() * contexts) as u64;
                    self.counters.submits += 1;
                    self.counters.jobs += n_jobs;
                    self.submitted_jobs += n_jobs;
                    let start = Instant::now();
                    let span = self.tracer.open("service.submit", parent, session);
                    let outcome = svc.submit_sweep("bulk", sweep.clone());
                    self.tracer.close(span);
                    self.submit_seconds += start.elapsed().as_secs_f64();
                    let batch = match outcome {
                        Ok(batch) => batch,
                        Err(e) => {
                            self.counters.submits_failed += 1;
                            self.counters.jobs_failed += n_jobs;
                            return Err(format!("bulk sweep rejected by the service: {e}"));
                        }
                    };
                    let ids = svc.batch_jobs(batch);
                    if ids.len() as u64 != n_jobs {
                        return Err(format!(
                            "sweep of {n_jobs} points expanded to {} jobs",
                            ids.len()
                        ));
                    }
                    // Expansion order: binding sets outer, contexts inner.
                    let expects: Vec<Expect> = (0..ids.len())
                        .map(|i| Expect::Gate {
                            inst,
                            angles: points[i / contexts].clone(),
                            shots,
                        })
                        .collect();
                    if keep_sample {
                        // One device batch's worth of the first sweep, or one
                        // job per width of a ladder.
                        let per_target = if self.targets.len() == 1 { 8 } else { 1 };
                        let jobs = sweep
                            .expand()
                            .map_err(|e| format!("sample sweep failed to expand: {e}"))?;
                        for (i, bundle) in jobs.into_iter().take(per_target).enumerate() {
                            self.sample.gate.push(SampleJob {
                                bundle,
                                expect: expects[i].clone(),
                                bulk_id: Some(ids[i]),
                            });
                        }
                    }
                    for (id, expect) in ids.into_iter().zip(expects) {
                        tracked.push(Tracked {
                            id,
                            expect,
                            probe: false,
                        });
                    }
                }
            }
            BulkShape::Fresh { instances } => {
                let shots = self.shape.bulk_shots;
                for _ in 0..instances {
                    let width = self.fresh_width(BULK);
                    let inst = self.new_instance(width, BULK);
                    for (bundle, expect) in
                        self.cold_pair(inst, ServiceClass::Throughput, shots, BULK)?
                    {
                        let copy = (session == 0 && chunk == 0).then(|| bundle.clone());
                        let Some(id) = self.submit_one(svc, "bulk", bundle, parent) else {
                            continue;
                        };
                        if let Some(bundle) = copy {
                            let job = SampleJob {
                                bundle,
                                expect: expect.clone(),
                                bulk_id: Some(id),
                            };
                            match expect {
                                Expect::Gate { .. } => self.sample.gate.push(job),
                                Expect::Anneal { .. } => self.sample.anneal.push(job),
                            }
                        }
                        tracked.push(Tracked {
                            id,
                            expect,
                            probe: false,
                        });
                    }
                }
            }
        }
        Ok(tracked)
    }

    /// One closed-loop iteration of the interactive tenant: submit a probe
    /// pair, wait for both outcomes, and feed the gate result back to the
    /// search. Returns the tracked probes and, every [`ALONE_EVERY`] pairs,
    /// the bundles to re-run alone.
    fn probe_pair(
        &mut self,
        svc: &QmlService,
        parent: Option<usize>,
        alone: &mut Vec<(JobId, JobBundle)>,
    ) -> Result<Vec<Tracked>, String> {
        let pair = self.next_probe()?;
        let keep = self.probe_pairs.is_multiple_of(ALONE_EVERY);
        self.probe_pairs += 1;
        if self.sample.anneal.len() < 4 {
            self.sample.anneal.push(SampleJob {
                bundle: pair[1].0.clone(),
                expect: pair[1].1.clone(),
                bulk_id: None,
            });
        }
        let mut pending = Vec::new();
        for (bundle, expect) in pair {
            let start = Instant::now();
            self.counters.probes += 1;
            let copy = keep.then(|| bundle.clone());
            if let Some(id) = self.submit_one(svc, "interactive", bundle, parent) {
                if let Some(copy) = copy {
                    alone.push((id, copy));
                }
                pending.push((id, expect, start, false));
            } else {
                self.counters.probes_failed += 1;
            }
        }
        let wait = self.tracer.open("service.wait", parent, 0);
        let deadline = Instant::now() + JOB_TIMEOUT;
        while pending.iter().any(|p| !p.3) {
            for p in pending.iter_mut().filter(|p| !p.3) {
                if is_terminal(&svc.status(p.0)) {
                    p.3 = true;
                    self.probe_latency_ms
                        .push(p.2.elapsed().as_secs_f64() * 1e3);
                }
            }
            if Instant::now() > deadline {
                return Err("an interactive probe did not settle within 60 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        self.tracer.close(wait);
        // The search observes the sampled expected cut, as a user would.
        if let Some(state) = &mut self.search {
            if let Some((id, Expect::Gate { inst, .. }, _, _)) = pending.first() {
                let value = svc
                    .result(*id)
                    .and_then(|r| sampled_cuts(&r, &self.instances[*inst].graph))
                    .map_or(0.0, |cuts| mean_cut(&cuts));
                if state.inst == *inst {
                    state.search.observe(value);
                }
            }
        }
        Ok(pending
            .into_iter()
            .map(|(id, expect, _, _)| Tracked {
                id,
                expect,
                probe: true,
            })
            .collect())
    }

    // ----- sessions -----------------------------------------------------

    fn session_runtime(&mut self) -> Runtime {
        if self.shape.fresh_cache {
            self.cache = Arc::new(TranspileCache::new());
        }
        runtime_with(&self.cache)
    }

    /// One session: fresh service, fixed bulk quota, interactive loop until
    /// idle, drain, then check every output.
    fn session(&mut self, index: u64) -> Result<(), String> {
        let runtime = self.session_runtime();
        let (gate_before, anneal_before) = (self.cache.gate_stats(), self.cache.anneal_stats());
        let svc = QmlService::with_runtime(runtime, ServiceConfig::with_workers(WORKERS));
        let handle = svc
            .start()
            .map_err(|e| format!("service failed to start: {e}"))?;
        let root = self.tracer.open("service.session", None, index);
        let mut tracked = Vec::new();
        let mut alone = Vec::new();
        let mut chunks = 0usize;
        // First and last job of the newest chunk: once either leaves the
        // queue (the scheduler may run a chunk in either order), the next
        // chunk is submitted, so the bulk queue never runs dry.
        let mut newest: Vec<JobId> = Vec::new();
        let start = Instant::now();
        loop {
            let queued_ahead = !newest.is_empty()
                && newest
                    .iter()
                    .all(|&id| svc.status(id) == Some(JobStatus::Queued));
            if chunks < self.shape.chunks_per_session && !queued_ahead {
                let submitted = self.submit_chunk(&svc, index, chunks as u64, root)?;
                newest = submitted
                    .first()
                    .into_iter()
                    .chain(submitted.last())
                    .map(|t| t.id)
                    .collect();
                tracked.extend(submitted);
                chunks += 1;
                continue;
            }
            tracked.extend(self.probe_pair(&svc, root, &mut alone)?);
            if chunks >= self.shape.chunks_per_session && svc.wait_idle(Duration::ZERO) {
                break;
            }
            if start.elapsed() > Duration::from_secs(150) {
                return Err("a session ran for more than 150 s".into());
            }
        }
        let wall = start.elapsed().as_secs_f64();
        let drain = self.tracer.open("service.drain", root, index);
        let summary = handle.drain();
        self.tracer.close(drain);
        let snap = self.tracer.open("service.snapshot", root, index);
        let snapshot = svc.snapshot();
        self.tracer.close(snap);
        self.tracer.close(root);
        let bulk_completed = self.verify(&svc, &tracked);
        self.verify_alone(&svc, &alone);
        self.verify_batched(&svc);
        let (gate, anneal) = (&snapshot.service.gate_cache, &snapshot.service.anneal_cache);
        self.sessions.push(SessionStats {
            wall,
            completed: summary.completed as u64,
            bulk_completed,
            gate_misses: gate.misses - gate_before.misses,
            gate_hits: gate.hits - gate_before.hits,
            anneal_misses: anneal.misses - anneal_before.misses,
            snapshot,
        });
        Ok(())
    }

    /// Timed set-up: build the bulk intents, start a service on an empty
    /// plan cache, and run one job of every bulk plan to completion.
    /// Repeated [`SETUP_REPS`] times; returns the median in seconds.
    pub fn setup(&mut self) -> Result<f64, String> {
        self.draw_inputs();
        let mut times = Vec::new();
        for rep in 0..SETUP_REPS {
            let start = Instant::now();
            self.build_targets()?;
            self.cache = Arc::new(TranspileCache::new());
            let svc = QmlService::with_runtime(
                runtime_with(&self.cache),
                ServiceConfig::with_workers(WORKERS),
            );
            let handle = svc
                .start()
                .map_err(|e| format!("service failed to start: {e}"))?;
            let mut primes = Vec::new();
            match self.shape.bulk {
                BulkShape::Sweeps { .. } => {
                    for t in 0..self.targets.len() {
                        let target = &self.targets[t];
                        let width = self.instances[target.inst].graph.n;
                        let angles = target.pool[0].clone();
                        let bundle = target
                            .base
                            .clone()
                            .with_bindings(BindingSet::from_param_values(&binding_map(&angles)))
                            .with_context(gate_context(
                                width,
                                self.shape.bulk_shots,
                                rep as u64,
                                self.shape.routed,
                            ));
                        let inst = target.inst;
                        let shots = self.shape.bulk_shots;
                        primes.push((
                            bundle,
                            Expect::Gate {
                                inst,
                                angles,
                                shots,
                            },
                        ));
                    }
                }
                BulkShape::Fresh { .. } => {
                    let width = self.fresh_width(BULK);
                    let inst = self.new_instance(width, BULK);
                    primes.extend(self.cold_pair(
                        inst,
                        ServiceClass::Throughput,
                        self.shape.bulk_shots,
                        BULK,
                    )?);
                }
            }
            // One plan at a time: wide kernels side by side would mostly time
            // their contention for the two CPUs.
            let mut tracked = Vec::new();
            for (bundle, expect) in primes {
                self.counters.jobs += 1;
                let id = match svc.submit("setup", bundle) {
                    Ok((_, id)) => id,
                    Err(e) => return Err(format!("set-up job rejected: {e}")),
                };
                // Poll finer than `wait_for`'s 500 µs: a warm set-up takes
                // about a millisecond.
                let deadline = Instant::now() + JOB_TIMEOUT;
                while !is_terminal(&svc.status(id)) {
                    if Instant::now() > deadline {
                        return Err("a set-up job did not settle within 60 s".into());
                    }
                    std::thread::sleep(Duration::from_micros(20));
                }
                tracked.push(Tracked {
                    id,
                    expect,
                    probe: false,
                });
            }
            times.push(start.elapsed().as_secs_f64());
            handle.drain();
            if self.verify(&svc, &tracked) != tracked.len() as u64 {
                return Err("a set-up job failed".into());
            }
        }
        Ok(median(&times))
    }

    /// Run sessions until `seconds` have passed (whole sessions only) and
    /// return the median over sessions of the bulk tenant's completed jobs
    /// per second of session wall time (the interactive tenant is measured
    /// by its latency). With `split`, spans are recorded only in even
    /// sessions, and the odd sessions' median comes back too, as the
    /// untraced reference for the tracing overhead.
    pub fn run(&mut self, seconds: f64, split: bool) -> Result<(f64, Option<f64>), String> {
        // One untimed warm-up session: the process's first pass over its
        // heap (page faults for the retained job records) is paid once, not
        // by whichever session happens to come first.
        let traced = self.tracer.enabled();
        self.tracer.set_enabled(false);
        self.session(0)?;
        self.sessions.clear();
        self.probe_latency_ms.clear();
        self.submit_seconds = 0.0;
        self.submitted_jobs = 0;
        let start = Instant::now();
        // Untraced and traced sessions alternate, so both see the same
        // machine weather and the same mix of sessions.
        let mut rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        for index in 1.. {
            let elapsed = start.elapsed().as_secs_f64();
            let done = elapsed >= seconds && (!split || rates[1].len() >= 2);
            if done || elapsed > 150.0 {
                break;
            }
            let side = usize::from(split && index % 2 == 0);
            self.tracer.set_enabled(traced && (!split || side == 1));
            self.session(index)?;
            let s = self.sessions.last().expect("a session just ran");
            rates[side].push(s.bulk_completed as f64 / s.wall);
        }
        self.tracer.set_enabled(traced);
        let [untraced, traced_rates] = rates;
        if split {
            Ok((median(&traced_rates), Some(median(&untraced))))
        } else {
            Ok((median(&untraced), None))
        }
    }

    // ----- checks -------------------------------------------------------

    /// Check every tracked job; returns how many bulk jobs completed.
    fn verify(&mut self, svc: &QmlService, tracked: &[Tracked]) -> u64 {
        let mut bulk_completed = 0;
        for t in tracked {
            match svc.status(t.id) {
                Some(JobStatus::Completed) => bulk_completed += u64::from(!t.probe),
                other => {
                    self.counters.jobs_failed += 1;
                    if t.probe {
                        self.counters.probes_failed += 1;
                    }
                    self.counters
                        .check(false, || format!("job {:?} ended as {other:?}", t.id));
                    continue;
                }
            }
            let Some(result) = svc.result(t.id) else {
                self.counters.check(false, || {
                    format!("job {:?} completed without a result", t.id)
                });
                continue;
            };
            self.check_result(&result, &t.expect, t.probe);
        }
        bulk_completed
    }

    /// Check one result against the references; record approximation
    /// ratios.
    fn check_result(&mut self, result: &ExecutionResult, expect: &Expect, probe: bool) {
        let (inst, samples) = match expect {
            Expect::Gate { inst, shots, .. } => (*inst, *shots),
            Expect::Anneal { inst, reads } => (*inst, *reads),
        };
        let total: u64 = result.counts.values().sum();
        self.counters
            .check(total == samples && result.shots == samples, || {
                format!(
                    "counts sum to {total} (shots {}), expected {samples}",
                    result.shots
                )
            });
        let optimum = self.optimum(inst);
        let Some(cuts) = sampled_cuts(result, &self.instances[inst].graph) else {
            self.counters.check(false, || {
                "a result word does not decode to per-vertex labels".into()
            });
            return;
        };
        let best = cuts.iter().map(|&(c, _)| c).max().unwrap_or(0);
        self.counters.check(best <= optimum, || {
            format!("sampled cut {best} exceeds the exhaustive optimum {optimum}")
        });
        let mean = mean_cut(&cuts);
        match expect {
            Expect::Gate { angles, shots, .. } => {
                let reference = self.reference(inst, angles);
                let tolerance = Z_TOLERANCE * (reference.variance / *shots as f64).sqrt() + 1e-9;
                self.counters.check((mean - reference.mean).abs() <= tolerance, || {
                    format!(
                        "sampled expected cut {mean:.4} is more than {Z_TOLERANCE} standard errors from the reference {:.4}",
                        reference.mean
                    )
                });
                if probe && self.gate_ratios.len() < RATIO_JOBS {
                    self.gate_ratios.push(mean / f64::from(optimum));
                }
            }
            Expect::Anneal { .. } => {
                let graph = &self.instances[inst].graph;
                let lowest = result
                    .decoded
                    .decoded
                    .values()
                    .filter_map(|v| match v {
                        DecodedValue::Bool(sides) => Some(
                            sides
                                .iter()
                                .map(|&b| if b { -1i8 } else { 1 })
                                .collect::<Vec<_>>(),
                        ),
                        DecodedValue::Spins(spins) => Some(spins.clone()),
                        _ => None,
                    })
                    .map(|spins| graph.ising_energy(&spins))
                    .fold(f64::INFINITY, f64::min);
                let reported = result.energy_stats.map(|s| s.min_energy);
                self.counters
                    .check(reported.is_some_and(|e| (e - lowest).abs() < 1e-9), || {
                        format!(
                            "reported min_energy {reported:?} differs from the reference {lowest}"
                        )
                    });
                if probe && self.anneal_ratios.len() < RATIO_JOBS {
                    self.anneal_ratios.push(mean / f64::from(optimum));
                }
            }
        }
    }

    /// Interactive results are bit-identical to the same bundle run alone,
    /// because every seed derives from the bundle.
    fn verify_alone(&mut self, svc: &QmlService, alone: &[(JobId, JobBundle)]) {
        let runtime = Runtime::with_default_backends();
        for (id, bundle) in alone {
            let solo = runtime
                .submit(bundle.clone())
                .and_then(|solo| runtime.run_job(solo));
            let served = svc.result(*id);
            self.counters.check(
                matches!((&solo, &served), (Ok(a), Some(b)) if a.counts == b.counts),
                || format!("probe {id:?} differs from the same bundle run alone"),
            );
        }
    }

    /// Bulk jobs run as one device batch equal the same jobs run one by one,
    /// and both equal what the service returned.
    fn verify_batched(&mut self, svc: &QmlService) {
        if self.batch_checked {
            return;
        }
        self.batch_checked = true;
        let backends: [&dyn Backend; 2] = [&GateBackend, &AnnealBackend];
        let groups = [self.sample.gate.clone(), self.sample.anneal.clone()];
        for (backend, group) in backends.into_iter().zip(groups) {
            let jobs: Vec<SampleJob> = group.into_iter().filter(|j| j.bulk_id.is_some()).collect();
            if jobs.is_empty() {
                continue;
            }
            let bundles: Vec<JobBundle> = jobs.iter().map(|j| j.bundle.clone()).collect();
            let batched = backend.execute_batch(&bundles, &TranspileCache::new());
            let cache = TranspileCache::new();
            for (job, batched) in jobs.iter().zip(&batched) {
                let sequential = backend.execute_cached(&job.bundle, &cache);
                let id = job.bulk_id.expect("filtered to bulk jobs");
                let served = svc.result(id);
                let same = matches!(
                    (batched, &sequential, &served),
                    (Ok(a), Ok(b), Some(c)) if a.counts == b.counts && b.counts == c.counts
                );
                self.counters.check(same, || {
                    format!("bulk job {id:?}: batched, sequential and served results differ")
                });
            }
        }
    }

    // ----- figures ------------------------------------------------------

    pub fn sessions(&self) -> &[SessionStats] {
        &self.sessions
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }
}
