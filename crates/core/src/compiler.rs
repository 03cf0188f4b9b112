//! The end-to-end 2QAN compilation pipeline.

use crate::budget::CompileBudget;
use crate::error::CompileError;
use crate::fault::FaultInjector;
use crate::hash::ContentHasher;
use crate::mapping::{CostModel, InitialMappingStrategy, MappingConfig};
use crate::passes::{AlapSchedulePass, DecomposePass, PermutationRoutingPass, QapMappingPass};
use crate::pipeline::{
    CompilationContext, CompiledOutput, Compiler, DegradationRung, PassManager, PassRecord,
    PipelineReport,
};
use crate::routing::RoutingConfig;
use crate::scheduling::SchedulingStrategy;
use std::sync::Arc;
use twoqan_circuit::Circuit;
use twoqan_device::Device;
use twoqan_graphs::{AnnealingConfig, TabuConfig};

/// Configuration of the 2QAN compiler.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoQanConfig {
    /// Initial-placement strategy (§III-A).
    pub mapping_strategy: InitialMappingStrategy,
    /// Tabu-search parameters for the mapping pass, so callers can trade
    /// placement quality for compile time instead of getting hard-coded
    /// defaults.
    pub tabu: TabuConfig,
    /// Simulated-annealing parameters for the mapping pass (used with
    /// [`InitialMappingStrategy::SimulatedAnnealing`]).
    pub annealing: AnnealingConfig,
    /// How many independent mapping + routing trials to run; the result with
    /// the fewest SWAPs (then fewest hardware gates) is kept.  The paper runs
    /// the randomised mapping pass 5 times and keeps the best result.
    pub mapping_trials: usize,
    /// Merge a circuit gate into the SWAP on the same logical pair (dressed
    /// SWAPs, §III-B); disable only for ablation studies.
    pub enable_dressing: bool,
    /// Scheduling strategy (hybrid vs. order-respecting, for ablations).
    pub scheduling: SchedulingStrategy,
    /// Base random seed (trial `k` uses `seed + k`).
    pub seed: u64,
    /// The distance cost model — the single switch that drives both the
    /// QAP mapping distance matrix and the router's SWAP selection.
    /// [`CostModel::CalibrationAware`] steers placement and routing onto
    /// the device target's low-error qubits/edges; on a uniform target it
    /// reproduces the hop-count compilation bit for bit.
    pub cost_model: CostModel,
    /// Wall-clock deadline / cancellation budget for the compilation.  The
    /// default is unlimited (bit-identical to a compiler without budget
    /// support); under a limited budget the compiler degrades along the
    /// [`DegradationRung`] ladder instead of erroring.  Never hashed: only
    /// an unexpired budget yields a `Full` (cacheable) artifact.
    pub budget: CompileBudget,
    /// Optional warm-start placement (`logical → physical`) from a previous
    /// compile of the same circuit, forwarded to the mapping pass: restart
    /// slot 0 of every mapping trial's QAP solver starts from this placement
    /// (never ending up worse than the seed itself) while the remaining
    /// restarts stay random.  Invalid seeds (device changed, wrong circuit)
    /// silently fall back to the cold multi-start.  This knob changes the
    /// artifact and is therefore part of the cache fingerprint.
    pub warm_start: Option<Vec<usize>>,
}

impl Default for TwoQanConfig {
    fn default() -> Self {
        Self {
            mapping_strategy: InitialMappingStrategy::TabuSearch,
            tabu: TabuConfig::default(),
            annealing: AnnealingConfig::default(),
            mapping_trials: 3,
            enable_dressing: true,
            scheduling: SchedulingStrategy::Hybrid,
            seed: 2021,
            cost_model: CostModel::HopCount,
            budget: CompileBudget::unlimited(),
            warm_start: None,
        }
    }
}

impl TwoQanConfig {
    /// The stock configuration with the calibration-aware cost model
    /// switched on (mapping and routing both optimise −log-fidelity
    /// weighted distances against the device target).
    pub fn calibration_aware() -> Self {
        Self {
            cost_model: CostModel::CalibrationAware,
            ..Self::default()
        }
    }

    /// The mapping-pass configuration implied by this compiler config.
    pub fn mapping_config(&self) -> MappingConfig {
        MappingConfig {
            strategy: self.mapping_strategy,
            tabu: self.tabu.clone(),
            annealing: self.annealing.clone(),
            cost: self.cost_model,
            warm_start: self.warm_start.clone(),
        }
    }
}

/// The 2QAN compiler.
#[derive(Debug, Clone, Default)]
pub struct TwoQanCompiler {
    config: TwoQanConfig,
    faults: Option<Arc<FaultInjector>>,
}

impl TwoQanCompiler {
    /// Creates a compiler with the given configuration.
    pub fn new(config: TwoQanConfig) -> Self {
        Self {
            config,
            faults: None,
        }
    }

    /// The compiler configuration.
    pub fn config(&self) -> &TwoQanConfig {
        &self.config
    }

    /// Attaches a chaos-testing fault injector, consulted before every pass
    /// of every pipeline run (see [`crate::fault`]).  Production compilers
    /// never attach one; the hook costs nothing when absent.
    pub fn with_fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.faults = Some(injector);
        self
    }

    /// The pass list of one pipeline run: `[qap-mapping,
    /// permutation-routing, alap-schedule, decompose]`, with mapping and
    /// routing under `cost` and the placement found by `strategy`.  The
    /// unifying pre-pass is not part of it: [`Compiler::compile`] runs it
    /// once, up front, for every run of the portfolio.
    fn pipeline(&self, cost: CostModel, strategy: InitialMappingStrategy) -> PassManager {
        PassManager::with_passes(vec![
            Box::new(QapMappingPass::new(MappingConfig {
                strategy,
                cost,
                ..self.config.mapping_config()
            })),
            Box::new(PermutationRoutingPass::new(RoutingConfig {
                enable_dressing: self.config.enable_dressing,
                cost,
            })),
            Box::new(AlapSchedulePass::new(self.config.scheduling)),
            Box::new(DecomposePass),
        ])
    }

    /// The bottom rung of the degradation ladder: identity placement,
    /// hop-count routing and scheduling — no iterative search anywhere, so
    /// it terminates regardless of how little budget remains.  Runs under
    /// the compiler's fault injector (if any) so chaos runs exercise the
    /// fallback path too.
    fn trivial_fallback(
        &self,
        prepared: &Circuit,
        device: &Device,
    ) -> Result<CompiledOutput, CompileError> {
        let pipeline = self.pipeline(CostModel::HopCount, InitialMappingStrategy::Trivial);
        let mut ctx = CompilationContext::for_device(prepared.clone(), device, self.config.seed);
        ctx.faults = self.faults.clone();
        let report = pipeline.run(&mut ctx)?;
        Ok(ctx.into_output(Compiler::name(self), report))
    }
}

impl Compiler for TwoQanCompiler {
    fn name(&self) -> &'static str {
        match self.config.cost_model {
            CostModel::HopCount => "2QAN",
            CostModel::CalibrationAware => "2QAN-noise",
        }
    }

    /// Compiles one Trotter step / QAOA layer onto a device.
    ///
    /// The pipeline is run once per mapping trial (each with its own seed)
    /// and the result with the fewest SWAPs (then fewest hardware gates,
    /// then lowest depth) is kept; the report sums wall-clock per pass over
    /// all trials and snapshots gate/depth from the winning trial.  The
    /// deterministic unifying pre-pass is hoisted out of the trial loop (it
    /// would produce the same circuit every trial), so its report entry is a
    /// single measurement.
    ///
    /// Under a limited [`CompileBudget`] the planned portfolio degrades
    /// along an explicit ladder instead of erroring: the budget is checked
    /// between pipeline runs (and, inside the mapping pass, per solver
    /// sweep), so an expired deadline truncates the portfolio to whatever
    /// runs completed — the first of which is always a hop-count pipeline.
    /// If not even one run completed (deadline already expired on entry, or
    /// every run failed), a trivial-placement + routing fallback that always
    /// terminates produces the result.  Only a compile whose budget never
    /// expired is labelled [`DegradationRung::Full`].  The report records
    /// the rung that ran, the configured deadline and the budget consumed.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::TooManyQubits`] if the circuit does not fit on
    /// the device, and the first pipeline failure if neither the portfolio
    /// nor the fallback produced a result.
    fn compile(&self, circuit: &Circuit, device: &Device) -> Result<CompiledOutput, CompileError> {
        let armed = self.config.budget.arm();
        let trials = self.config.mapping_trials.max(1);
        // Unify once, up front: the pre-pass draws no randomness, so every
        // trial would redo identical work.
        let t0 = std::time::Instant::now();
        let prepared = circuit.unify_same_pair_gates();
        let unify_record = PassRecord {
            name: "unify",
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            two_qubit_gates_after: prepared.two_qubit_gate_count(),
            depth_after: 0,
            gate_delta: prepared.two_qubit_gate_count() as isize
                - circuit.two_qubit_gate_count() as isize,
            depth_delta: 0,
        };
        // Under the calibration-aware cost model on a heterogeneous target
        // the compiler runs a *portfolio*: every trial seed is compiled
        // with both the hop-count and the weighted cost model, and the
        // candidate with the highest estimated success probability wins —
        // weighted placements are only kept when the per-channel noise
        // figures actually predict a fidelity gain over the hop-count
        // compilation of the same seed.  (On a uniform target the weighted
        // pipeline is bit-identical to the hop-count one, so the portfolio
        // would only duplicate work: the legacy single-pipeline path runs
        // and degenerates exactly.)
        let error_aware =
            self.config.cost_model == CostModel::CalibrationAware && !device.target().is_uniform();
        let costs = if error_aware {
            vec![CostModel::HopCount, CostModel::CalibrationAware]
        } else {
            vec![self.config.cost_model]
        };
        let pipelines: Vec<PassManager> = costs
            .into_iter()
            .map(|cost| self.pipeline(cost, self.config.mapping_strategy))
            .collect();
        let legacy_rank = |o: &CompiledOutput| {
            (
                o.metrics.swap_count,
                o.metrics.hardware_two_qubit_count,
                o.metrics.hardware_two_qubit_depth,
            )
        };
        let mut best: Option<(CompiledOutput, f64)> = None;
        let mut report = PipelineReport::default();
        let planned = trials * pipelines.len();
        let mut completed = 0usize;
        let mut first_error: Option<CompileError> = None;
        // A budget that expired before any work was done (zero deadline,
        // pre-cancelled token) sends the compilation straight to the
        // trivial fallback — even the anytime solvers' setup would waste
        // the caller's remaining time.
        let skip_portfolio = armed.is_limited() && armed.expired();
        'portfolio: for trial in 0..trials {
            for pipeline in &pipelines {
                if skip_portfolio || (completed > 0 && armed.expired()) {
                    break 'portfolio;
                }
                let mut ctx = CompilationContext::for_device(
                    prepared.clone(),
                    device,
                    self.config.seed.wrapping_add(trial as u64),
                );
                ctx.budget = armed.clone();
                ctx.faults = self.faults.clone();
                // A failing pipeline run drops out of the portfolio instead
                // of aborting the compilation: later runs (or the fallback)
                // may still succeed.  The first error is kept for the case
                // where nothing does.
                let trial_report = match pipeline.run(&mut ctx) {
                    Ok(r) => r,
                    Err(e) => {
                        if first_error.is_none() {
                            first_error = Some(e);
                        }
                        continue;
                    }
                };
                completed += 1;
                let timeline = ctx.timeline.take();
                let candidate = ctx.into_output(Compiler::name(self), trial_report);
                // Trial selection: fewest SWAPs (then gates, then depth) as
                // in the paper; the error-aware portfolio ranks by ESP
                // first so the kept candidate is the one likeliest to
                // succeed, not merely the smallest.
                let esp = if error_aware {
                    let timeline =
                        timeline.expect("the decompose pass sets the timeline for device runs");
                    crate::decompose::estimated_success_probability_with_timeline(
                        &candidate.hardware_circuit,
                        candidate.basis,
                        device.target(),
                        &timeline,
                    )
                } else {
                    0.0
                };
                let better = match &best {
                    None => true,
                    Some((b, best_esp)) => {
                        if error_aware {
                            esp > *best_esp
                                || (esp == *best_esp && legacy_rank(&candidate) < legacy_rank(b))
                        } else {
                            legacy_rank(&candidate) < legacy_rank(b)
                        }
                    }
                };
                report.absorb_trial(&candidate.report, better);
                if better {
                    best = Some((candidate, esp));
                }
            }
        }
        // `Full` only when every planned run completed and the budget never
        // expired: an expired budget may have cut a solver short mid-run.
        let full = completed == planned && !armed.expired();
        let (mut output, rung) = match best {
            Some((candidate, _)) if full => (candidate, DegradationRung::Full),
            Some((candidate, _)) => (candidate, DegradationRung::SinglePipeline),
            // Bottom rung: trivial placement + routing, no iterative search.
            None => match self.trivial_fallback(&prepared, device) {
                Ok(fallback) => {
                    report.absorb_trial(&fallback.report, true);
                    (fallback, DegradationRung::TrivialFallback)
                }
                Err(fallback_err) => return Err(first_error.unwrap_or(fallback_err)),
            },
        };
        report.total_ms += unify_record.wall_ms;
        report.passes.insert(0, unify_record);
        report.rung = rung;
        report.deadline_ms = self.config.budget.deadline.map(|d| d.as_secs_f64() * 1e3);
        report.budget_consumed_ms = armed.consumed().as_secs_f64() * 1e3;
        output.report = report;
        Ok(output)
    }

    fn cache_fingerprint(&self, h: &mut ContentHasher) {
        // No `..`: a new config field fails to compile here until it is
        // hashed or given a reason to stay out of the key.  Enums hash by
        // declaration order, which is therefore part of the key format.
        let TwoQanConfig {
            mapping_strategy,
            tabu:
                TabuConfig {
                    max_iterations,
                    tenure,
                    stall_limit,
                    restarts: tabu_restarts,
                    parallel: _, // pooled restarts are bit-identical to serial ones
                },
            annealing:
                AnnealingConfig {
                    initial_temperature,
                    cooling_rate,
                    moves_per_temperature,
                    final_temperature,
                    restarts: annealing_restarts,
                    parallel: _, // pooled restarts are bit-identical to serial ones
                },
            mapping_trials,
            enable_dressing,
            scheduling,
            seed,
            cost_model,
            budget: _, // expiry lowers the rung below `Full`, and only `Full` is cached
            ref warm_start,
        } = self.config;
        h.write_str(Compiler::name(self));
        for tag in [mapping_strategy as u8, scheduling as u8, cost_model as u8] {
            h.write_u8(tag);
        }
        h.write_u8(enable_dressing.into());
        h.write_u64(seed);
        h.write_f64_slice(&[initial_temperature, cooling_rate, final_temperature]);
        for v in [max_iterations, tenure, stall_limit, tabu_restarts] {
            h.write_usize(v);
        }
        for v in [moves_per_temperature, annealing_restarts, mapping_trials] {
            h.write_usize(v);
        }
        // `None` hashes as length 0, `Some(placement)` as its length + 1.
        h.write_usize(warm_start.as_ref().map_or(0, |p| p.len() + 1));
        warm_start.iter().flatten().for_each(|&p| h.write_usize(p));
    }

    fn warm_clone(&self, placement: &[usize]) -> Option<Box<dyn Compiler>> {
        // The warm compiler trades the cold multi-start portfolio (several
        // trials × several solver restarts) for a single warm-seeded solver
        // run.  This is safe — the warm solvers never return a placement
        // worse than the seed — and is where the recompile speed-up comes
        // from.  The seed lands in the config, so the cache fingerprint
        // covers it automatically.
        let mut config = self.config.clone();
        config.warm_start = Some(placement.to_vec());
        config.mapping_trials = 1;
        config.tabu.restarts = 1;
        config.annealing.restarts = 1;
        Some(Box::new(Self {
            config,
            faults: self.faults.clone(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoqan_circuit::{Gate, GateKind};
    use twoqan_device::TwoQubitBasis;
    use twoqan_ham::{nnn_heisenberg, nnn_ising, nnn_xy, trotter_step, QaoaProblem};

    fn compile(circuit: &Circuit, device: &Device) -> CompiledOutput {
        TwoQanCompiler::new(TwoQanConfig {
            mapping_trials: 2,
            ..TwoQanConfig::default()
        })
        .compile(circuit, device)
        .unwrap()
    }

    #[test]
    fn compiles_all_models_onto_all_devices() {
        let devices = [Device::sycamore(), Device::montreal(), Device::aspen()];
        for device in &devices {
            for (name, circuit) in [
                ("ising", trotter_step(&nnn_ising(8, 1), 1.0)),
                ("xy", trotter_step(&nnn_xy(8, 2), 1.0)),
                ("heisenberg", trotter_step(&nnn_heisenberg(8, 3), 1.0)),
            ] {
                let result = compile(&circuit, device);
                assert!(
                    result.hardware_compatible(device),
                    "{name} on {} is not hardware compatible",
                    device.name()
                );
                assert_eq!(
                    result.metrics.application_two_qubit_count,
                    circuit.unify_same_pair_gates().two_qubit_gate_count() + result.swap_count()
                        - result.metrics.dressed_swap_count
                );
            }
        }
    }

    #[test]
    fn qaoa_compilation_is_hardware_compatible_and_reports_dressed_swaps() {
        let problem = QaoaProblem::random_regular(12, 3, 5);
        let circuit = problem.circuit(&[(0.6, 0.4)], true);
        let device = Device::montreal();
        let result = compile(&circuit, &device);
        assert!(result.hardware_compatible(&device));
        assert!(result.swap_count() > 0);
        assert!(result.metrics.dressed_swap_count <= result.swap_count());
        assert_eq!(result.basis, TwoQubitBasis::Cnot);
    }

    #[test]
    fn no_swaps_needed_when_interaction_graph_embeds() {
        let mut circuit = Circuit::new(6);
        for i in 0..5 {
            circuit.push(Gate::canonical(i, i + 1, 0.0, 0.0, 0.3));
        }
        let device = Device::grid(2, 3, TwoQubitBasis::Cnot);
        let result = compile(&circuit, &device);
        assert_eq!(result.swap_count(), 0);
        assert_eq!(result.metrics.hardware_two_qubit_count, 10);
    }

    #[test]
    fn rejects_oversized_circuits() {
        let circuit = trotter_step(&nnn_ising(20, 1), 1.0);
        let err = TwoQanCompiler::default()
            .compile(&circuit, &Device::aspen())
            .unwrap_err();
        assert!(matches!(err, CompileError::TooManyQubits { .. }));
    }

    #[test]
    fn layer_schedule_scales_parameters_and_reverses() {
        let problem = QaoaProblem::random_regular(8, 3, 2);
        let circuit = problem.circuit(&[(0.5, 0.25)], false);
        let device = Device::montreal();
        let result = compile(&circuit, &device);
        let forward = result.layer_schedule(2.0, 3.0, false);
        assert_eq!(forward.gate_count(), result.hardware_circuit.gate_count());
        // Interaction coefficients doubled.
        let original_zz: f64 = result
            .hardware_circuit
            .iter_gates()
            .filter_map(|g| match g.kind {
                GateKind::Canonical { zz, .. } | GateKind::DressedSwap { zz, .. } => Some(zz),
                _ => None,
            })
            .sum();
        let scaled_zz: f64 = forward
            .iter_gates()
            .filter_map(|g| match g.kind {
                GateKind::Canonical { zz, .. } | GateKind::DressedSwap { zz, .. } => Some(zz),
                _ => None,
            })
            .sum();
        assert!((scaled_zz - 2.0 * original_zz).abs() < 1e-9);
        let reversed = result.layer_schedule(1.0, 1.0, true);
        assert_eq!(reversed.gate_count(), forward.gate_count());
        let first_forward = result
            .hardware_circuit
            .moments()
            .first()
            .unwrap()
            .gates()
            .len();
        let last_reversed = reversed.moments().last().unwrap().gates().len();
        assert_eq!(first_forward, last_reversed);
    }

    #[test]
    fn solver_configs_flow_through_the_compiler() {
        let circuit = trotter_step(&nnn_heisenberg(10, 9), 1.0);
        let device = Device::montreal();
        // A starved Tabu budget must still produce a valid compilation…
        let starved = TwoQanCompiler::new(TwoQanConfig {
            mapping_trials: 1,
            tabu: twoqan_graphs::TabuConfig {
                max_iterations: 1,
                restarts: 1,
                ..twoqan_graphs::TabuConfig::default()
            },
            ..TwoQanConfig::default()
        })
        .compile(&circuit, &device)
        .unwrap();
        assert!(starved.hardware_compatible(&device));
        // …and the annealing config reaches the annealing solver.
        let annealed = TwoQanCompiler::new(TwoQanConfig {
            mapping_strategy: InitialMappingStrategy::SimulatedAnnealing,
            mapping_trials: 1,
            annealing: twoqan_graphs::AnnealingConfig {
                restarts: 2,
                ..twoqan_graphs::AnnealingConfig::default()
            },
            ..TwoQanConfig::default()
        })
        .compile(&circuit, &device)
        .unwrap();
        assert!(annealed.hardware_compatible(&device));
    }

    #[test]
    fn unlimited_budget_reproduces_the_default_compilation_bit_for_bit() {
        let circuit = trotter_step(&nnn_heisenberg(10, 9), 1.0);
        let device = Device::montreal();
        let stock = TwoQanCompiler::default()
            .compile(&circuit, &device)
            .unwrap();
        let budgeted = TwoQanCompiler::new(TwoQanConfig {
            budget: CompileBudget::unlimited(),
            ..TwoQanConfig::default()
        })
        .compile(&circuit, &device)
        .unwrap();
        assert_eq!(stock.hardware_circuit, budgeted.hardware_circuit);
        assert_eq!(stock.metrics, budgeted.metrics);
        assert_eq!(stock.initial_placement, budgeted.initial_placement);
        assert_eq!(stock.final_placement, budgeted.final_placement);
    }

    #[test]
    fn zero_deadline_compiles_via_the_trivial_fallback() {
        use std::time::Duration;
        let circuit = trotter_step(&nnn_heisenberg(10, 9), 1.0);
        let device = Device::montreal();
        let result = TwoQanCompiler::new(TwoQanConfig {
            budget: CompileBudget::with_deadline(Duration::ZERO),
            ..TwoQanConfig::default()
        })
        .compile(&circuit, &device)
        .unwrap();
        let report = &result.report;
        assert_eq!(report.rung, DegradationRung::TrivialFallback);
        assert_eq!(report.deadline_ms, Some(0.0));
        assert!(result.hardware_compatible(&device));
        // The fallback starts from the identity placement.
        assert_eq!(result.initial_placement, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancelled_token_compiles_via_the_trivial_fallback() {
        use crate::budget::CancelToken;
        let circuit = trotter_step(&nnn_heisenberg(10, 9), 1.0);
        let device = Device::montreal();
        let token = CancelToken::new();
        token.cancel();
        let result = TwoQanCompiler::new(TwoQanConfig {
            budget: CompileBudget::unlimited().with_cancel_token(token),
            ..TwoQanConfig::default()
        })
        .compile(&circuit, &device)
        .unwrap();
        let report = &result.report;
        assert_eq!(report.rung, DegradationRung::TrivialFallback);
        assert_eq!(report.deadline_ms, None);
        assert!(result.hardware_compatible(&device));
    }

    #[test]
    fn generous_deadline_runs_the_full_portfolio() {
        use std::time::Duration;
        let circuit = trotter_step(&nnn_heisenberg(8, 7), 1.0);
        let device = Device::montreal();
        let result = TwoQanCompiler::new(TwoQanConfig {
            budget: CompileBudget::with_deadline(Duration::from_secs(600)),
            ..TwoQanConfig::default()
        })
        .compile(&circuit, &device)
        .unwrap();
        let report = &result.report;
        assert_eq!(report.rung, DegradationRung::Full);
        assert!(report.budget_consumed_ms > 0.0);
        assert!(result.hardware_compatible(&device));
    }

    #[test]
    fn deadline_expiring_inside_the_only_run_is_not_full() {
        use crate::fault::{FaultConfig, FaultInjector};
        use std::time::Duration;
        // The injected 5 ms delay before the mapping pass outlasts the 1 ms
        // deadline, so the Tabu search stops at its first budget check: the
        // one planned run completes, but truncated.
        let circuit = trotter_step(&nnn_heisenberg(10, 9), 1.0);
        let device = Device::montreal();
        let injector = Arc::new(FaultInjector::new(FaultConfig {
            delay_probability: 1.0,
            delay: Duration::from_millis(5),
            ..FaultConfig::default()
        }));
        let result = TwoQanCompiler::new(TwoQanConfig {
            mapping_trials: 1,
            budget: CompileBudget::with_deadline(Duration::from_millis(1)),
            ..TwoQanConfig::default()
        })
        .with_fault_injector(injector)
        .compile(&circuit, &device)
        .unwrap();
        assert_ne!(result.report.rung, DegradationRung::Full);
        assert!(result.hardware_compatible(&device));
    }

    #[test]
    fn fault_injected_errors_degrade_instead_of_failing_when_a_run_survives() {
        use crate::fault::{FaultConfig, FaultInjector};
        let circuit = trotter_step(&nnn_heisenberg(8, 7), 1.0);
        let device = Device::montreal();
        // Injected errors with p=0.35 will kill some pipeline runs but (for
        // this seed) not all planned ones — the compiler must still return
        // a valid result from the surviving runs, marked degraded.
        let injector = Arc::new(FaultInjector::new(FaultConfig {
            seed: 5,
            error_probability: 0.35,
            ..FaultConfig::default()
        }));
        let result = TwoQanCompiler::new(TwoQanConfig {
            mapping_trials: 4,
            ..TwoQanConfig::default()
        })
        .with_fault_injector(Arc::clone(&injector))
        .compile(&circuit, &device)
        .unwrap();
        let report = &result.report;
        assert!(injector.counts().errors > 0, "no fault ever fired");
        assert_ne!(report.rung, DegradationRung::Full);
        assert!(result.hardware_compatible(&device));
    }

    #[test]
    fn more_mapping_trials_never_hurt() {
        let circuit = trotter_step(&nnn_heisenberg(10, 9), 1.0);
        let device = Device::montreal();
        let one = TwoQanCompiler::new(TwoQanConfig {
            mapping_trials: 1,
            ..TwoQanConfig::default()
        })
        .compile(&circuit, &device)
        .unwrap();
        let five = TwoQanCompiler::new(TwoQanConfig {
            mapping_trials: 5,
            ..TwoQanConfig::default()
        })
        .compile(&circuit, &device)
        .unwrap();
        assert!(five.swap_count() <= one.swap_count());
    }

    #[test]
    fn warm_clone_recompiles_validly_and_never_loses_to_its_seed() {
        use crate::mapping::{mapping_cost, QubitMap};
        let circuit = trotter_step(&nnn_heisenberg(10, 9), 1.0);
        let device = Device::montreal();
        let cold = TwoQanCompiler::default();
        let cold_out = Compiler::compile(&cold, &circuit, &device).unwrap();
        let seed = cold_out.initial_placement.clone();
        let warm = cold
            .warm_clone(&seed)
            .expect("the 2QAN compiler has a warm path");
        let warm_out = warm.compile(&circuit, &device).unwrap();
        // The warm compile must be a complete, hardware-compatible artifact…
        assert!(warm_out
            .hardware_circuit
            .iter_gates()
            .filter(|g| g.is_two_qubit())
            .all(|g| device.are_adjacent(g.qubit0(), g.qubit1())));
        // …whose placement is at least as good (in QAP cost) as its seed.
        let unified = circuit.unify_same_pair_gates();
        let m = device.num_qubits();
        let seed_cost = mapping_cost(&QubitMap::from_assignment(&seed, m), &unified, &device);
        let warm_cost = mapping_cost(
            &QubitMap::from_assignment(&warm_out.initial_placement, m),
            &unified,
            &device,
        );
        assert!(
            warm_cost <= seed_cost,
            "warm placement cost {warm_cost} worse than seed cost {seed_cost}"
        );
        // The seed changes the artifact, so it must change the cache key.
        let fingerprint = |c: &dyn Compiler| {
            let mut h = ContentHasher::new();
            c.cache_fingerprint(&mut h);
            h.finish()
        };
        assert_ne!(fingerprint(&cold), fingerprint(warm.as_ref()));
        let mut other_seed = seed.clone();
        other_seed.swap(0, 1);
        assert_ne!(
            fingerprint(warm.as_ref()),
            fingerprint(cold.warm_clone(&other_seed).unwrap().as_ref()),
            "different seeds must land on different cache lines"
        );
    }
}
