//! Graph algorithms and combinatorial-optimisation substrates for the 2QAN
//! reproduction.
//!
//! The 2QAN compiler relies on a handful of classical algorithms:
//!
//! * all-pairs shortest-path distances between hardware qubits
//!   (Floyd–Warshall, §III-A of the paper),
//! * greedy graph colouring for scheduling gates without dependencies
//!   (§III-D, the paper uses NetworkX's default greedy strategy),
//! * random d-regular graph generation for the QAOA-REG-d benchmarks
//!   (§IV), and
//! * the Quadratic Assignment Problem formulation of initial qubit mapping,
//!   solved with Tabu search (§III-A) — simulated annealing is provided as
//!   the alternative the paper mentions.
//!
//! All of these are implemented here from scratch so the workspace has no
//! external graph/optimisation dependencies.

#![deny(missing_docs)]

pub mod annealing;
pub mod budget;
pub mod coloring;
pub mod distance;
pub mod graph;
pub mod parallel;
pub mod qap;
pub mod random_regular;
pub mod simd;
pub mod tabu;
pub mod weighted;

pub use annealing::{
    simulated_annealing, simulated_annealing_with, AnnealingConfig, AnnealingResult,
};
pub use budget::{CancelToken, SolverBudget};
pub use coloring::{greedy_coloring, ColoringResult};
pub use distance::DistanceMatrix;
pub use graph::Graph;
pub use qap::QapProblem;
pub use random_regular::{random_regular_graph, try_random_regular_graph, RandomRegularError};
#[cfg(any(test, feature = "reference"))]
pub use tabu::{build_delta_table_reference, select_best_move_reference};
pub use tabu::{
    select_best_move, tabu_search, tabu_search_warm, tabu_search_with, DeltaTable, ScanOutcome,
    TabuConfig, TabuResult, WarmStart,
};
pub use weighted::WeightedDistanceMatrix;
