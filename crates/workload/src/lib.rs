//! Workload substrate for the `agilepm` workspace.
//!
//! The ISCA'13 paper evaluates on enterprise demand traces whose defining
//! statistical features are a strong diurnal swing, short-term burstiness,
//! and occasional flash spikes. This crate generates reproducible synthetic
//! equivalents:
//!
//! * [`Shape`] — the deterministic demand component (constant, diurnal
//!   sinusoid, step, square wave).
//! * [`Ar1Noise`] / [`SpikeProcess`] — stochastic modifiers: correlated
//!   AR(1) noise and Poisson-arrival flash crowds.
//! * [`DemandProcess`] — shape + noise + spikes, sampled into a
//!   [`DemandTrace`] with a seeded RNG stream.
//! * [`VmClass`] / [`FleetSpec`] — VM population generation: classes with
//!   resource footprints and demand processes, mixed by weight.
//! * [`DemandTable`] — a fleet's one demand store, sample-major (one row
//!   per trace step), and the simulator's one-row-per-tick read path.
//!   [`FleetSpec::generate`] writes it directly, 64-VM column blocks in
//!   parallel on `simcore::pool`; [`Fleet::from_parts`] transposes
//!   hand-built [`DemandTrace`]s into it once. [`Fleet::traces`] reads
//!   each VM's trace back in place, as a [`Column`].
//! * [`presets`] — the canonical fleets used by the experiment harness.
//!
//! # Example
//!
//! ```
//! use simcore::{RngStream, SimDuration};
//! use workload::{DemandProcess, Shape};
//!
//! let process = DemandProcess::new(Shape::diurnal(0.4, 0.3)).with_noise(0.9, 0.05);
//! let mut rng = RngStream::new(7);
//! let trace = process.generate(SimDuration::from_hours(24), SimDuration::from_mins(5), &mut rng);
//! assert_eq!(trace.len(), 288);
//! assert!(trace.mean() > 0.2 && trace.mean() < 0.6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod demand;
mod fleet;
mod lifetime;
pub mod presets;
mod table;
mod trace;

pub use demand::{Ar1Noise, DemandProcess, Shape, SpikeProcess};
pub use fleet::{Fleet, FleetSpec, VmClass};
pub use lifetime::{Lifetime, LifetimePlan};
pub use table::{Column, ColumnIter, Columns, DemandTable};
pub use trace::DemandTrace;
