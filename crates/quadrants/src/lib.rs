//! The four data-management quadrants of distributed GBDT — one code base.
//!
//! The paper's Figure 1 organizes distributed GBDT systems by data
//! partitioning × data storage:
//!
//! | | column-store | row-store |
//! |---|---|---|
//! | **horizontal** | QD1 (XGBoost) | QD2 (LightGBM, DimBoost) |
//! | **vertical** | QD3 (Yggdrasil) | QD4 (**Vero**, this work) |
//!
//! Every trainer here runs the same boosting loop (`driver`) over the
//! identical GBDT mathematics from `gbdt-core` (histograms, Eq. 1/2 split
//! finding, losses) and the identical cluster substrate from
//! `gbdt-cluster`; a trainer is only a *data policy*: how the data is
//! partitioned, stored and indexed, and which communication pattern moves
//! histograms or placements — precisely the controlled comparison of the
//! paper's §5.2.
//!
//! * `driver` — the one layer-wise boosting loop, generic over a data
//!   policy, plus the shared split exchange and the vertical policy
//!   (DESIGN.md item 16).
//! * [`single`] — single-node reference trainer, kept outside the driver
//!   as the ground truth for the cross-quadrant equivalence tests.
//! * [`qd1`] — horizontal + column-store, instance-to-node index, all-reduce.
//! * [`qd2`] — horizontal + row-store, node-to-instance index, histogram
//!   subtraction; aggregation: all-reduce, reduce-scatter (LightGBM) or
//!   parameter-server (DimBoost).
//! * [`qd3`] — vertical + column-store with the hybrid index plan of §5.2.2.
//! * [`qd4`] — vertical + row-store: **Vero's** trainer.
//! * [`yggdrasil`] — vertical + column-store with a column-wise
//!   node-to-instance index (Appendix C).
//! * [`featpar`] — LightGBM's feature-parallel mode: full replica per
//!   worker (Appendix D).
//! * [`common`] — result types, subtraction planning, frontier
//!   bookkeeping, horizontal all-reduces.
//! * [`advisor`] — the paper's §6 future work, implemented: an executable
//!   §3 cost model that recommends a quadrant for a workload/environment.

pub mod advisor;
pub mod common;
mod driver;
pub mod featpar;
pub mod qd1;
pub mod qd2;
pub mod qd3;
pub mod qd4;
pub mod single;
pub mod yggdrasil;

pub use common::{Aggregation, DistTrainResult, TreeStat};
