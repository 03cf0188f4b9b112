//! Property-based tests over the core invariants of the reproduction.
//!
//! The build environment has no crates.io access, so instead of `proptest`
//! these use a small seeded-RNG harness: each property draws a fixed number
//! of random cases from a deterministic generator, so failures are
//! reproducible from the seed embedded in the test.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use twoqan_repro::prelude::*;
use twoqan_repro::twoqan_circuit::GateKind;
use twoqan_repro::twoqan_graphs::{
    build_delta_table_reference, select_best_move, select_best_move_reference, simulated_annealing,
    tabu_search, tabu_search_with, AnnealingConfig, DeltaTable, DistanceMatrix, Graph, QapProblem,
    ScanOutcome, SolverBudget, TabuConfig, WarmStart,
};
use twoqan_repro::twoqan_math::cost::TwoQubitBasisCost;
use twoqan_repro::twoqan_math::weyl::{MakhlinInvariants, WeylCoordinates};
use twoqan_repro::twoqan_math::{gates, Matrix4};
use twoqan_repro::twoqan_sim::kernels::CompiledCircuit;
use twoqan_repro::twoqan_sim::TrajectorySimulator;

/// Runs `property` over `cases` independent random cases drawn from a
/// deterministically seeded generator.
fn for_random_cases(cases: usize, seed: u64, mut property: impl FnMut(&mut StdRng)) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..cases {
        property(&mut rng);
    }
}

/// A random 2-local interaction circuit on `n` qubits with up to 20
/// two-qubit canonical gates (possibly repeated pairs) and random
/// coefficients — the `arbitrary_circuit` strategy of the proptest version.
fn arbitrary_circuit(n: usize, rng: &mut StdRng) -> Circuit {
    let m = rng.gen_range(1..21usize);
    let mut c = Circuit::new(n);
    for _ in 0..m {
        let a = rng.gen_range(0..n);
        let mut b = rng.gen_range(0..n);
        if a == b {
            b = (b + 1) % n;
        }
        c.push(Gate::canonical(
            a,
            b,
            rng.gen_range(0.0..1.5),
            rng.gen_range(0.0..1.5),
            rng.gen_range(0.0..1.5),
        ));
    }
    c
}

/// A random QAP instance: random interactions over `n` circuit qubits,
/// padded onto a random grid device — the exact shape the mapping pass
/// produces.
fn arbitrary_qap(rng: &mut StdRng) -> QapProblem {
    let rows = rng.gen_range(2..4usize);
    let cols = rng.gen_range(3..5usize);
    let m = rows * cols;
    let n = rng.gen_range(3..=m.min(9));
    let num_gates = rng.gen_range(1..12usize);
    let mut interactions = Vec::with_capacity(num_gates);
    for _ in 0..num_gates {
        let a = rng.gen_range(0..n);
        let mut b = rng.gen_range(0..n);
        if a == b {
            b = (b + 1) % n;
        }
        interactions.push((a, b));
    }
    let hw = DistanceMatrix::bfs(&Graph::grid(rows, cols));
    // Pad to the device size, as `initial_mapping` does, so the instance has
    // dummy facilities and the dummy-skipping paths are exercised.
    QapProblem::from_interactions(m, &interactions, &hw)
}

/// Weyl coordinates always land in the folded chamber and the derived
/// gate counts are in range for every basis.
#[test]
fn weyl_coordinates_stay_in_chamber() {
    for_random_cases(24, 101, |rng| {
        let (a, b, c) = (
            rng.gen_range(-6.0..6.0),
            rng.gen_range(-6.0..6.0),
            rng.gen_range(-6.0..6.0),
        );
        let w = WeylCoordinates::from_interaction(a, b, c);
        assert!(w.c1 >= w.c2 && w.c2 >= w.c3);
        assert!(w.c3 >= 0.0);
        assert!(w.c1 <= std::f64::consts::FRAC_PI_4 + 1e-9);
        for basis in TwoQubitBasisCost::ALL {
            assert!(basis.gate_count(&w) <= 3);
        }
        // Canonicalisation is idempotent.
        let again = WeylCoordinates::from_interaction(w.c1, w.c2, w.c3);
        assert!(w.approx_eq(&again, 1e-9));
    });
}

/// The numeric (spectral) Weyl coordinates of a canonical gate match the
/// analytic ones, and local invariants agree for locally-dressed copies.
#[test]
fn numeric_and_analytic_weyl_agree() {
    for_random_cases(24, 102, |rng| {
        let (a, b, c) = (
            rng.gen_range(0.0..1.5),
            rng.gen_range(0.0..1.5),
            rng.gen_range(0.0..1.5),
        );
        let t = rng.gen_range(0.0..3.0);
        let u = gates::canonical(a, b, c);
        let numeric = WeylCoordinates::of(&u);
        let analytic = WeylCoordinates::from_interaction(a, b, c);
        assert!(
            numeric.approx_eq(&analytic, 1e-4),
            "numeric {numeric} vs analytic {analytic}"
        );
        let dressed = gates::embed_single(&gates::rz(t), 0)
            .mul(&u)
            .mul(&gates::embed_single(&gates::rx(t), 1));
        let inv_a = MakhlinInvariants::of(&u);
        let inv_b = MakhlinInvariants::of(&dressed);
        assert!(inv_a.approx_eq(&inv_b, 1e-7));
    });
}

/// Canonical gates compose additively, so the unified gate of two
/// same-pair exponentials equals their matrix product.
#[test]
fn same_pair_unification_is_exact() {
    for_random_cases(24, 103, |rng| {
        let (a1, b1, c1) = (
            rng.gen_range(0.0..1.0),
            rng.gen_range(0.0..1.0),
            rng.gen_range(0.0..1.0),
        );
        let (a2, b2, c2) = (
            rng.gen_range(0.0..1.0),
            rng.gen_range(0.0..1.0),
            rng.gen_range(0.0..1.0),
        );
        let product = gates::canonical(a1, b1, c1).mul(&gates::canonical(a2, b2, c2));
        let unified = gates::canonical(a1 + a2, b1 + b2, c1 + c2);
        assert!(product.approx_eq(&unified, 1e-9));
    });
}

/// The 2QAN pipeline always produces a hardware-compatible circuit that
/// preserves every application operator, for random interaction circuits
/// on random grid devices.
#[test]
fn pipeline_preserves_operators_on_random_grids() {
    for_random_cases(24, 104, |rng| {
        let rows = rng.gen_range(2..4usize);
        let cols = rng.gen_range(3..5usize);
        let n = rng.gen_range(4..=(rows * cols).min(9));
        let circuit = arbitrary_circuit(n, rng);
        let device = Device::grid(rows, cols, TwoQubitBasis::Cnot);
        let result = TwoQanCompiler::new(TwoQanConfig {
            mapping_trials: 1,
            ..TwoQanConfig::default()
        })
        .compile(&circuit, &device)
        .unwrap();
        assert!(result.hardware_compatible(&device));
        let unified = circuit.unify_same_pair_gates();
        let app_gates = result
            .hardware_circuit
            .iter_gates()
            .filter(|g| {
                matches!(
                    g.kind,
                    GateKind::Canonical { .. } | GateKind::DressedSwap { .. }
                )
            })
            .count();
        assert_eq!(app_gates, unified.two_qubit_gate_count());
        // Metrics consistency: dressed SWAPs are a subset of all SWAPs and
        // the schedule is structurally valid.
        assert!(result.metrics.dressed_swap_count <= result.metrics.swap_count);
        assert!(result.hardware_circuit.is_valid());
    });
}

/// The duration-aware timeline preserves the per-qubit dependency DAG of
/// the schedule it times: for every qubit, the gates acting on it occupy
/// disjoint, monotonically increasing intervals in exactly the schedule's
/// per-qubit order — for random circuits compiled end to end onto
/// heterogeneous random-calibration devices.
#[test]
fn duration_schedule_preserves_the_per_qubit_dependency_dag() {
    use twoqan_repro::twoqan::decompose::timeline_with_target;
    for_random_cases(16, 601, |rng| {
        let n = rng.gen_range(4..=9usize);
        let circuit = arbitrary_circuit(n, rng);
        let device = Device::grid(3, 4, TwoQubitBasis::Cnot)
            .with_heterogeneous_calibration(rng.gen_range(0..1_000_000u64));
        let result = TwoQanCompiler::new(TwoQanConfig {
            mapping_trials: 1,
            ..TwoQanConfig::default()
        })
        .compile(&circuit, &device)
        .unwrap();
        let schedule = &result.hardware_circuit;
        let timeline = timeline_with_target(schedule, result.basis, device.target());
        assert_eq!(timeline.gates().len(), schedule.gate_count());
        // Per qubit: the timed gates appear in schedule order with
        // non-overlapping, monotonically increasing intervals.
        for q in 0..schedule.num_qubits() {
            let mut last_end = 0.0f64;
            for (timed, original) in timeline
                .gates()
                .iter()
                .zip(schedule.iter_gates())
                .filter(|(_, g)| g.acts_on(q))
            {
                assert_eq!(timed.gate, *original, "qubit {q}: order changed");
                assert!(
                    timed.start_ns >= last_end,
                    "qubit {q}: gate {} overlaps its predecessor",
                    timed.gate
                );
                last_end = timed.end_ns();
            }
            assert!(last_end <= timeline.total_ns() + 1e-9);
            // Idle accounting: busy + idle covers the makespan for used
            // qubits.
            if timeline.is_used(q) {
                assert!(
                    (timeline.busy_ns(q) + timeline.idle_ns(q) - timeline.total_ns()).abs() < 1e-6
                );
            }
        }
    });
}

/// With all gate durations equal, the duration-aware timeline degenerates
/// to the existing ALAP/ASAP cycle schedule bit for bit: every gate's start
/// time is exactly its moment index and the makespan is the depth.
#[test]
fn unit_duration_timeline_reproduces_the_cycle_schedule() {
    use twoqan_repro::twoqan_circuit::Timeline;
    for_random_cases(16, 602, |rng| {
        let n = rng.gen_range(4..=9usize);
        let circuit = arbitrary_circuit(n, rng);
        let device = Device::grid(3, 3, TwoQubitBasis::Cnot);
        let result = TwoQanCompiler::new(TwoQanConfig {
            mapping_trials: 1,
            ..TwoQanConfig::default()
        })
        .compile(&circuit, &device)
        .unwrap();
        let schedule = &result.hardware_circuit;
        let timeline = Timeline::schedule(schedule, |_| 1.0);
        let mut gate_idx = 0usize;
        for (moment_idx, moment) in schedule.moments().iter().enumerate() {
            for _ in moment.gates() {
                assert_eq!(
                    timeline.gates()[gate_idx].start_ns,
                    moment_idx as f64,
                    "gate {gate_idx} start must equal its cycle index"
                );
                gate_idx += 1;
            }
        }
        assert_eq!(timeline.total_ns(), schedule.depth() as f64);
    });
}

/// The generic baselines also always produce hardware-compatible
/// circuits and never merge SWAPs.
#[test]
fn generic_baselines_are_hardware_compatible() {
    for_random_cases(12, 105, |rng| {
        let circuit = arbitrary_circuit(rng.gen_range(4..10usize), rng);
        let device = Device::montreal();
        for result in [
            GenericCompiler::tket_like()
                .compile(&circuit, &device)
                .unwrap(),
            GenericCompiler::qiskit_like()
                .compile(&circuit, &device)
                .unwrap(),
        ] {
            assert!(result.hardware_compatible(&device));
            assert_eq!(result.metrics.dressed_swap_count, 0);
            let app_gates = result
                .hardware_circuit
                .iter_gates()
                .filter(|g| matches!(g.kind, GateKind::Canonical { .. }))
                .count();
            assert_eq!(
                app_gates,
                circuit.unify_same_pair_gates().two_qubit_gate_count()
            );
        }
    });
}

/// State-vector evolution is norm-preserving and ZZ rotations commute
/// with each other (permuting them never changes the state).
#[test]
fn simulator_preserves_norm_and_commuting_permutations() {
    for_random_cases(24, 106, |rng| {
        let num_edges = rng.gen_range(1..8usize);
        let mut valid: Vec<(usize, usize, f64)> = Vec::with_capacity(num_edges);
        for _ in 0..num_edges {
            let a = rng.gen_range(0..6usize);
            let b = rng.gen_range(0..6usize);
            if a != b {
                valid.push((a, b, rng.gen_range(0.0..1.0)));
            }
        }
        if valid.is_empty() {
            return;
        }
        let mut forward = StateVector::plus_state(6);
        let mut reversed = StateVector::plus_state(6);
        for &(a, b, theta) in &valid {
            forward.apply_two(a, b, &gates::zz_interaction(theta));
        }
        for &(a, b, theta) in valid.iter().rev() {
            reversed.apply_two(a, b, &gates::zz_interaction(theta));
        }
        assert!((forward.norm_sqr() - 1.0).abs() < 1e-9);
        for (x, y) in forward.amplitudes().iter().zip(reversed.amplitudes()) {
            assert!(x.approx_eq(*y, 1e-9));
        }
    });
}

/// A random circuit mixing every gate kind the kernel classifier can see:
/// diagonal / anti-diagonal / real / mixed single-qubit gates, and
/// diagonal / swap-diagonal / dense two-qubit gates.
fn arbitrary_mixed_circuit(n: usize, rng: &mut StdRng) -> Circuit {
    let m = rng.gen_range(5..25usize);
    let mut c = Circuit::new(n);
    for _ in 0..m {
        let a = rng.gen_range(0..n);
        let mut b = rng.gen_range(0..n);
        if a == b {
            b = (b + 1) % n;
        }
        let t = rng.gen_range(0.1..1.4);
        let kind = match rng.gen_range(0..12u32) {
            0 => GateKind::Rz(t),
            1 => GateKind::Z,
            2 => GateKind::X,
            3 => GateKind::Y,
            4 => GateKind::H,
            5 => GateKind::Rx(t),
            6 => GateKind::Ry(t),
            7 => GateKind::U3(t, 0.3, -0.8),
            8 => GateKind::Canonical {
                xx: 0.0,
                yy: 0.0,
                zz: t,
            },
            9 => GateKind::DressedSwap {
                xx: 0.0,
                yy: 0.0,
                zz: t,
            },
            10 => GateKind::Swap,
            _ => GateKind::Canonical {
                xx: t,
                yy: 0.4,
                zz: 0.2,
            },
        };
        if kind.is_two_qubit() {
            c.push(Gate::two(kind, a, b));
        } else {
            c.push(Gate::single(kind, a));
        }
    }
    c
}

/// The stride/specialized kernels are amplitude-identical (≤ 1e-12) to the
/// naive branch-per-index reference on random mixed circuits.
#[test]
fn kernels_match_naive_reference_on_random_circuits() {
    for_random_cases(24, 111, |rng| {
        let n = rng.gen_range(2..8usize);
        let circuit = arbitrary_mixed_circuit(n, rng);
        let mut reference = StateVector::plus_state(n);
        for gate in circuit.iter() {
            reference.apply_gate_naive(gate);
        }
        let mut kernelized = StateVector::plus_state(n);
        kernelized.apply_circuit(&circuit);
        for (x, y) in kernelized.amplitudes().iter().zip(reference.amplitudes()) {
            assert!((*x - *y).abs() <= 1e-12, "kernel {x} vs naive {y}");
        }
    });
}

/// Kernel application is bit-identical for every thread count (the
/// amplitude-chunk partition never changes the arithmetic).
#[test]
fn kernels_are_bit_identical_across_thread_counts() {
    for_random_cases(12, 112, |rng| {
        let n = rng.gen_range(3..9usize);
        let circuit = arbitrary_mixed_circuit(n, rng);
        let compiled = CompiledCircuit::from_circuit(&circuit);
        let mut serial = StateVector::plus_state(n);
        serial.apply_compiled_with_threads(&compiled, 1);
        for threads in [2usize, 3, 8] {
            let mut threaded = StateVector::plus_state(n);
            threaded.apply_compiled_with_threads(&compiled, threads);
            assert_eq!(
                threaded, serial,
                "{threads} threads diverged from the serial kernels"
            );
        }
    });
}

/// Trajectory sampling returns bit-identical estimates in serial and
/// thread-pool shot execution for a fixed seed.
#[test]
fn trajectory_sampling_is_bit_identical_across_thread_modes() {
    use twoqan_repro::twoqan_circuit::ScheduledCircuit;
    for_random_cases(6, 113, |rng| {
        let n = rng.gen_range(3..6usize);
        let circuit = arbitrary_mixed_circuit(n, rng);
        let gates: Vec<Gate> = circuit.iter().copied().collect();
        let schedule = ScheduledCircuit::asap_from_gates(n, &gates);
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        let noise = NoiseModel::from_device(&Device::montreal());
        let seed = rng.gen::<u64>();
        let sim = TrajectorySimulator::new(noise, TwoQubitBasis::Cnot, 16, seed);
        let serial = sim
            .clone()
            .with_parallel(false)
            .ising_cost_expectation(&schedule, &edges);
        let parallel = sim
            .clone()
            .with_parallel(true)
            .ising_cost_expectation(&schedule, &edges);
        assert_eq!(
            serial.to_bits(),
            parallel.to_bits(),
            "trajectories diverged across thread modes for seed {seed}"
        );
        // And the naive oracle agrees with the kernelized estimate on the
        // noiseless model (identical state up to floating-point
        // reassociation).
        let noiseless =
            TrajectorySimulator::new(NoiseModel::noiseless(), TwoQubitBasis::Cnot, 2, 3);
        let a = noiseless.ising_cost_expectation(&schedule, &edges);
        let b = noiseless.naive_expectation(&schedule, &edges);
        assert!((a - b).abs() < 1e-9, "kernelized {a} vs naive {b}");
    });
}

/// Hardware metrics are monotone: adding a gate never decreases counts.
#[test]
fn metrics_are_monotone_under_gate_addition() {
    use twoqan_repro::twoqan_circuit::{HardwareMetrics, ScheduledCircuit};
    for_random_cases(24, 107, |rng| {
        let circuit = arbitrary_circuit(rng.gen_range(4..9usize), rng);
        let gates_vec: Vec<Gate> = circuit.iter().copied().collect();
        let full = HardwareMetrics::of(
            &ScheduledCircuit::asap_from_gates(circuit.num_qubits(), &gates_vec),
            TwoQubitBasisCost::Cnot,
        );
        let truncated = HardwareMetrics::of(
            &ScheduledCircuit::asap_from_gates(
                circuit.num_qubits(),
                &gates_vec[..gates_vec.len() - 1],
            ),
            TwoQubitBasisCost::Cnot,
        );
        assert!(full.hardware_two_qubit_count >= truncated.hardware_two_qubit_count);
        assert!(full.hardware_two_qubit_depth >= truncated.hardware_two_qubit_depth);
    });
}

/// `Matrix4` products of unitaries stay unitary and the Frobenius
/// distance to the identity is zero only for the identity itself.
#[test]
fn unitary_products_stay_unitary() {
    for_random_cases(24, 108, |rng| {
        let (a, b) = (rng.gen_range(0.0..1.5), rng.gen_range(0.0..1.5));
        let t = rng.gen_range(-3.0..3.0);
        let u = gates::canonical(a, b, 0.3)
            .mul(&gates::embed_single(&gates::rz(t), 1))
            .mul(&gates::iswap());
        assert!(u.is_unitary(1e-9));
        let d = u.frobenius_distance(&Matrix4::identity());
        assert!(d >= 0.0);
    });
}

/// The incrementally maintained Tabu delta table stays consistent with
/// `QapProblem::cost` over random instances and random accepted-swap
/// sequences: every cached pair delta equals the cost difference of
/// actually performing that exchange.
#[test]
fn delta_table_stays_consistent_with_cost() {
    for_random_cases(16, 109, |rng| {
        let p = arbitrary_qap(rng);
        let n = p.num_facilities();
        let mut assignment = p.random_assignment(rng);
        let mut tracked_cost = p.cost(&assignment);
        let mut table = DeltaTable::new(&p, &assignment);
        for _ in 0..12 {
            // Accept a random swap, as the Tabu loop would.
            let u = rng.gen_range(0..n);
            let mut v = rng.gen_range(0..n);
            if u == v {
                v = (v + 1) % n;
            }
            let (u, v) = (u.min(v), u.max(v));
            let delta = table.delta(u, v);
            assignment.swap(u, v);
            tracked_cost += delta;
            table.apply_swap(&p, &assignment, u, v);
            // The incrementally tracked cost matches a full recomputation…
            assert!(
                (tracked_cost - p.cost(&assignment)).abs() < 1e-9,
                "tracked cost {tracked_cost} vs recomputed {}",
                p.cost(&assignment)
            );
            // …and every cached delta matches the cost difference of
            // performing that exchange on a scratch copy.
            for i in 0..n {
                for j in (i + 1)..n {
                    if !p.is_active(i) && !p.is_active(j) {
                        continue;
                    }
                    let mut swapped = assignment.clone();
                    swapped.swap(i, j);
                    let expected = p.cost(&swapped) - p.cost(&assignment);
                    assert!(
                        (table.delta(i, j) - expected).abs() < 1e-9,
                        "pair ({i},{j}): cached {} vs expected {expected}",
                        table.delta(i, j)
                    );
                }
            }
        }
    });
}

/// Deadline-limited compiles always return a connectivity-valid circuit
/// that passes the full equivalence-check battery — the anytime contract:
/// a budget can degrade the *quality* of the result, never its
/// *correctness*.  Exercised across random workloads and deadlines
/// ranging from generous to already expired.
#[test]
fn deadline_limited_compiles_always_yield_valid_equivalent_circuits() {
    use std::time::Duration;
    use twoqan_repro::twoqan::CompileBudget;
    use twoqan_repro::twoqan_verify::verify_output;

    let deadlines = [
        Duration::ZERO,
        Duration::from_micros(200),
        Duration::from_millis(2),
    ];
    let checker = EquivalenceChecker::with_tolerance(1e-9);
    for_random_cases(9, 701, |rng| {
        let n = rng.gen_range(6..=8usize);
        let circuit = arbitrary_circuit(n, rng);
        let device = Device::grid(3, 3, TwoQubitBasis::Cnot);
        for &deadline in &deadlines {
            let compiler = TwoQanCompiler::new(TwoQanConfig {
                mapping_trials: 2,
                seed: rng.gen::<u64>(),
                budget: CompileBudget::with_deadline(deadline),
                ..TwoQanConfig::default()
            });
            let output = Compiler::compile(&compiler, &circuit, &device)
                .expect("anytime compiles never fail on a fitting circuit");
            let case = verify_output(&compiler, &circuit, &output, &device, &checker);
            assert!(
                case.outcome.is_ok(),
                "deadline {deadline:?}, rung {}: {}",
                output.report.rung.name(),
                case.outcome.unwrap_err()
            );
        }
    });
}

/// An unlimited budget (with a disarmed fault injector attached) reproduces
/// the stock pipeline bit for bit: the robustness layer must cost nothing
/// on the default path.
#[test]
fn unlimited_budget_reproduces_the_stock_pipeline_bit_for_bit() {
    use std::sync::Arc;
    use twoqan_repro::twoqan::pipeline::DegradationRung;
    use twoqan_repro::twoqan::{CompileBudget, FaultInjector};

    for_random_cases(8, 702, |rng| {
        let n = rng.gen_range(5..=9usize);
        let circuit = arbitrary_circuit(n, rng);
        let device = Device::grid(3, 3, TwoQubitBasis::Cnot);
        let seed = rng.gen::<u64>();
        let config = TwoQanConfig {
            mapping_trials: 2,
            seed,
            ..TwoQanConfig::default()
        };
        let stock = Compiler::compile(&TwoQanCompiler::new(config.clone()), &circuit, &device)
            .expect("stock compile succeeds");
        let hardened = TwoQanCompiler::new(TwoQanConfig {
            budget: CompileBudget::unlimited(),
            ..config
        })
        .with_fault_injector(Arc::new(FaultInjector::disarmed()));
        let out = Compiler::compile(&hardened, &circuit, &device).expect("hardened compile");
        assert_eq!(out.report.rung, DegradationRung::Full);
        assert_eq!(
            out.hardware_circuit, stock.hardware_circuit,
            "seed {seed}: unlimited budget changed the compiled circuit"
        );
        assert_eq!(out.metrics, stock.metrics);
    });
}

/// A token cancelled before compilation starts forces the trivial-fallback
/// rung, which still yields a connectivity-valid, equivalence-checked
/// circuit — cancellation can never surface an invalid result.
#[test]
fn pre_cancelled_token_degrades_to_a_valid_trivial_fallback() {
    use twoqan_repro::twoqan::pipeline::DegradationRung;
    use twoqan_repro::twoqan::{CancelToken, CompileBudget};
    use twoqan_repro::twoqan_verify::verify_output;

    let checker = EquivalenceChecker::with_tolerance(1e-9);
    for_random_cases(6, 703, |rng| {
        let n = rng.gen_range(5..=8usize);
        let circuit = arbitrary_circuit(n, rng);
        let device = Device::grid(3, 3, TwoQubitBasis::Cnot);
        let token = CancelToken::new();
        token.cancel();
        let compiler = TwoQanCompiler::new(TwoQanConfig {
            mapping_trials: 2,
            seed: rng.gen::<u64>(),
            budget: CompileBudget::unlimited().with_cancel_token(token),
            ..TwoQanConfig::default()
        });
        let output = Compiler::compile(&compiler, &circuit, &device)
            .expect("cancellation degrades, it does not fail");
        assert_eq!(output.report.rung, DegradationRung::TrivialFallback);
        let case = verify_output(&compiler, &circuit, &output, &device, &checker);
        assert!(
            case.outcome.is_ok(),
            "trivial fallback broke a contract: {}",
            case.outcome.unwrap_err()
        );
    });
}

/// The streaming + SIMD delta-table build is bit-identical to the O(n³)
/// `swap_delta` reference on padded mapping instances (hop-count matrices
/// are small integers, so every reassociation is exact).
#[test]
fn blocked_delta_table_build_matches_the_reference() {
    for_random_cases(24, 201, |rng| {
        let p = arbitrary_qap(rng);
        let n = p.num_facilities();
        let a = p.random_assignment(rng);
        let table = DeltaTable::new(&p, &a);
        let reference = build_delta_table_reference(&p, &a);
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(
                    table.delta(i, j),
                    reference[i * n + j],
                    "pair ({i},{j}) diverged from the reference build"
                );
            }
        }
    });
}

/// The blocked, early-aborting neighbourhood scan picks exactly the move
/// the full reference scan picks — same pair, same delta, same tie-breaks —
/// under random tabu state, aspiration thresholds and accepted-swap
/// history.  This is the "early abort never skips the true best move"
/// guarantee.
#[test]
fn blocked_scan_matches_the_reference_scan() {
    for_random_cases(24, 202, |rng| {
        let p = arbitrary_qap(rng);
        let n = p.num_facilities();
        let mut assignment = p.random_assignment(rng);
        let mut table = DeltaTable::new(&p, &assignment);
        let budget = SolverBudget::unlimited();
        for step in 0..6 {
            // Random tabu state: some pairs forbidden, some recently freed.
            let tabu_until: Vec<usize> = (0..n * n).map(|_| rng.gen_range(0..8usize)).collect();
            let iter = rng.gen_range(0..8usize);
            let current_cost = p.cost(&assignment);
            // best_cost sometimes below current (aspiration can fire) and
            // sometimes above (it cannot).
            let best_cost = current_cost + rng.gen_range(-4.0..4.0);
            let blocked = select_best_move(
                &table,
                &p,
                &tabu_until,
                iter,
                current_cost,
                best_cost,
                &budget,
            );
            let reference =
                select_best_move_reference(&table, &p, &tabu_until, iter, current_cost, best_cost);
            assert_eq!(blocked, reference, "step {step} diverged");
            // Walk the search forward so later scans see updated tables.
            if let ScanOutcome::Move(i, j, _) = blocked {
                assignment.swap(i, j);
                table.apply_swap(&p, &assignment, i, j);
            } else {
                break;
            }
        }
    });
}

/// The budgeted blocked path honours the anytime contract: an expired
/// budget aborts the build and the scan, and a deadline-limited search
/// still returns a valid assignment whose reported cost is exact and no
/// worse than its starting point.
#[test]
fn budgeted_blocked_path_keeps_the_anytime_contract() {
    use std::time::Duration;
    for_random_cases(12, 203, |rng| {
        let p = arbitrary_qap(rng);
        let a = p.random_assignment(rng);
        let expired = SolverBudget::with_deadline(Duration::ZERO);
        assert!(
            DeltaTable::new_budgeted(&p, &a, &expired).is_none(),
            "an expired budget must abort the table build"
        );
        let table = DeltaTable::new(&p, &a);
        let tabu_until = vec![0usize; p.num_facilities() * p.num_facilities()];
        let cost = p.cost(&a);
        assert_eq!(
            select_best_move(&table, &p, &tabu_until, 1, cost, cost, &expired),
            ScanOutcome::Expired,
            "an expired budget must abort the scan"
        );
        for deadline in [Duration::ZERO, Duration::from_micros(50)] {
            let start = p.random_assignment(rng);
            let start_cost = p.cost(&start);
            let budget = SolverBudget::with_deadline(deadline);
            // One warm-seeded restart is a plain descent from `start`; it
            // ignores the seed it draws, so any generator will do.
            let r = tabu_search_with(
                &p,
                &TabuConfig {
                    restarts: 1,
                    ..TabuConfig::default()
                },
                &budget,
                Some(&WarmStart::new(start)),
                &mut StdRng::seed_from_u64(0),
            );
            assert!(p.is_valid_assignment(&r.assignment));
            assert_eq!(r.cost, p.cost(&r.assignment), "reported cost is stale");
            assert!(r.cost <= start_cost, "budgeted search lost ground");
        }
    });
}

/// Both QAP solvers return bit-identical results whether their restarts run
/// serially or on a shared [`CompilePool`] of any size — including a pool
/// larger than the restart count.
#[test]
fn pooled_solver_restarts_are_bit_identical_for_any_worker_count() {
    use twoqan_repro::twoqan::CompilePool;
    for_random_cases(4, 204, |rng| {
        let p = arbitrary_qap(rng);
        let seed = rng.gen::<u64>();
        let tabu = TabuConfig {
            restarts: 3,
            parallel: true,
            ..TabuConfig::default()
        };
        let sa = AnnealingConfig {
            restarts: 3,
            parallel: true,
            ..AnnealingConfig::default()
        };
        let serial_tabu = tabu_search(
            &p,
            &TabuConfig {
                parallel: false,
                ..tabu.clone()
            },
            &mut StdRng::seed_from_u64(seed),
        );
        let serial_sa = simulated_annealing(
            &p,
            &AnnealingConfig {
                parallel: false,
                ..sa.clone()
            },
            &mut StdRng::seed_from_u64(seed),
        );
        for workers in [1usize, 2, 4, 7] {
            let pool = CompilePool::new(workers);
            let guard = pool.install();
            let pooled_tabu = tabu_search(&p, &tabu, &mut StdRng::seed_from_u64(seed));
            let pooled_sa = simulated_annealing(&p, &sa, &mut StdRng::seed_from_u64(seed));
            drop(guard);
            assert_eq!(
                serial_tabu, pooled_tabu,
                "tabu diverged on a {workers}-worker pool (seed {seed})"
            );
            assert_eq!(
                serial_sa, pooled_sa,
                "annealing diverged on a {workers}-worker pool (seed {seed})"
            );
        }
    });
}

/// Parallel and serial multi-start runs of both QAP solvers return
/// bit-identical results for a fixed seed.
#[test]
fn solver_restarts_are_deterministic_across_thread_modes() {
    for_random_cases(8, 110, |rng| {
        let p = arbitrary_qap(rng);
        let seed = rng.gen::<u64>();
        let tabu = TabuConfig {
            restarts: 4,
            ..TabuConfig::default()
        };
        let serial = tabu_search(
            &p,
            &TabuConfig {
                parallel: false,
                ..tabu.clone()
            },
            &mut StdRng::seed_from_u64(seed),
        );
        let parallel = tabu_search(
            &p,
            &TabuConfig {
                parallel: true,
                ..tabu
            },
            &mut StdRng::seed_from_u64(seed),
        );
        assert_eq!(serial, parallel, "tabu diverged for seed {seed}");
        let sa = AnnealingConfig {
            restarts: 3,
            ..AnnealingConfig::default()
        };
        let serial = simulated_annealing(
            &p,
            &AnnealingConfig {
                parallel: false,
                ..sa.clone()
            },
            &mut StdRng::seed_from_u64(seed),
        );
        let parallel = simulated_annealing(
            &p,
            &AnnealingConfig {
                parallel: true,
                ..sa
            },
            &mut StdRng::seed_from_u64(seed),
        );
        assert_eq!(serial, parallel, "annealing diverged for seed {seed}");
    });
}
