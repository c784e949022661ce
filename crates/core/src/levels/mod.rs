//! Coordinate hierarchy level formats and the assembly abstract interface
//! (Sections 2 and 6 of the PLDI 2020 paper).
//!
//! A sparse tensor format is modelled as a *coordinate hierarchy*: one level
//! per (remapped) dimension, each stored by a *level format* that exposes a
//! fixed static interface. Chou et al. (OOPSLA 2018) defined the iteration
//! side of that interface; this paper adds the *assembly* side — level
//! functions that describe how a level's data structures are constructed
//! given precomputed attribute-query results:
//!
//! * `get_size`,
//! * sequenced / unsequenced edge insertion
//!   (`seq_/unseq_{init,insert,finalize}_edges`),
//! * coordinate insertion (`init_coords`, `init_{get|yield}_pos`,
//!   `{get|yield}_pos`, `insert_coord`, `finalize_{get|yield}_pos`).
//!
//! The module provides the [`LevelAssembler`] trait capturing that interface
//! plus implementations for the level formats used by the paper's format
//! zoo: [`DenseLevel`], [`CompressedLevel`], [`SingletonLevel`],
//! [`SlicedLevel`] (ELL), [`SqueezedLevel`] (DIA), [`BandedLevel`]
//! (skyline), and [`HashedLevel`] (an extension for DOK-style targets).
//!
//! The conversion engine drives these assemblers exactly as
//! Figure 12 describes: optional edge insertion over the parent level, then
//! one coordinate-insertion pass over the (remapped) nonzeros.

pub mod assembler;
pub mod banded;
pub mod compressed;
pub mod dense;
pub mod hashed;
pub mod properties;
pub mod singleton;
pub mod sliced;
pub mod squeezed;

pub use assembler::{EdgeInsertion, LevelAssembler, PositionKind};
pub use banded::BandedLevel;
pub use compressed::CompressedLevel;
pub use dense::DenseLevel;
pub use hashed::HashedLevel;
pub use properties::{LevelKind, LevelProperties, ParseLevelKindError};
pub use singleton::SingletonLevel;
pub use sliced::SlicedLevel;
pub use squeezed::SqueezedLevel;
