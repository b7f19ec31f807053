//! Closed-form models and design-space navigation from *Monkey: Optimal
//! Navigable Key-Value Store* (SIGMOD 2017).
//!
//! This crate is pure math — no I/O, no engine — implementing every
//! analytical result of the paper:
//!
//! | Module | Paper content |
//! |--------|---------------|
//! | [`params`] | Terms of Figure 2: `N`, `E`, `B`, `P`, `T`, `L` (Eq. 1), `T_lim` |
//! | [`fpr`] | Optimal per-level false positive rates (Eqs. 5/6, 15–18, Appendix B) and the uniform state-of-the-art assignment (Eqs. 23/24) |
//! | [`memory`] | Filter memory from an FPR assignment (Eq. 4), closed forms (Eqs. 19/20), `M_threshold` and `L_unfiltered` (Eqs. 8/22), and the §4.4 buffer/filter allocation strategy |
//! | [`cost`] | Worst-case costs: zero-result lookup `R` (Eq. 7), non-zero-result lookup `V` (Eq. 9), update `W` (Eq. 10), range lookup `Q` (Eq. 11), and the baseline `R_art` (Eqs. 25/26) |
//! | [`throughput`] | Workload mixes, average operation cost `θ` (Eq. 12), worst-case throughput `τ` (Eq. 13) |
//! | [`tuner`] | Appendix D: divide-and-conquer search for the (merge policy, size ratio) maximizing throughput, with SLA bounds |
//! | [`autotune`] | Appendix C: Algorithms 1–3, iterative filter allocation for variable entry sizes |
//! | [`design_space`] | Figure 1/4/8 presets and Pareto-curve enumeration |
//!
//! All quantities follow the paper's units: memory in **bits**, costs in
//! **I/Os**, `N` in entries.

#![warn(missing_docs)]

pub mod autotune;
pub mod cost;
pub mod design_space;
pub mod fpr;
pub mod memory;
pub mod params;
pub mod throughput;
pub mod tuner;

pub use cost::{
    baseline_zero_result_lookup_cost, non_zero_result_lookup_cost, range_lookup_cost, update_cost,
    zero_result_lookup_cost,
};
pub use fpr::{baseline_fprs, optimal_fprs, optimal_fprs_for_memory, optimal_fprs_for_run_sizes};
pub use memory::{
    allocate_memory, filter_memory_for_fprs, l_unfiltered, l_unfiltered_given, m_threshold,
    MemoryAllocation,
};
pub use params::{Params, Policy};
pub use throughput::{average_operation_cost, worst_case_throughput, Environment, Workload};
pub use tuner::{tune, tune_exhaustive, tune_traced, MemoryStrategy, Tuning, TuningConstraints};
