//! # compview-core
//!
//! The primary contribution of Hegner's *Canonical View Update Support
//! through Boolean Algebras of Components* (PODS 1984), executable:
//!
//! * [`space`] — enumerated `LDB(D, μ)` spaces as ↓-posets;
//! * [`view`] — views `Γ = (V, γ)` and their materialisation (kernels,
//!   images, view-state posets);
//! * [`vorder`] — the view order `≼`, morphisms, Beth's theorem (§2.2);
//! * [`update`] — update specifications, solutions, nonextraneous /
//!   minimal classification (§§0–1.2);
//! * [`strategy`] — update strategies and the admissibility requirements
//!   (Defs 1.2.8–1.2.14);
//! * [`complement`] — join / meet / full complements (Defs 1.3.1, 1.3.4;
//!   Thm 1.3.2);
//! * [`strong`] — strong views, `γ#`, `γ⊖`, strong complements (§2.3);
//! * [`components`] — the **Boolean algebra of components** with full law
//!   verification (Thm 2.3.3, Lemma 2.3.2);
//! * [`translate`] — constant-complement translation: Thm 3.1.1, Update
//!   Procedure 3.2.3, complement independence (Thm 3.2.2);
//! * [`pathview`] — symbolic, instance-scale components of path schemas
//!   (Examples 2.1.1 / 2.3.4 / 3.2.4 as a production engine);
//! * [`xor`] — the Example 1.3.6 / 3.3.1 XOR-complement comparison at
//!   scale;
//! * [`paper`] — fixtures reconstructing every example in the paper;
//! * [`workload`] — synthetic workload generators for benchmarks.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod catalog;
pub mod complement;
pub mod components;
pub mod family;
pub mod filtered;
pub mod horizontal;
pub mod implied;
pub mod paper;
pub mod pathview;
pub mod space;
pub mod strategy;
pub mod strong;
pub mod subschema;
pub mod translate;
pub mod treeview;
pub mod update;
pub mod view;
pub mod vorder;
pub mod workload;
pub mod xor;

pub use catalog::{Catalog, CatalogError, UpdateReport};
pub use components::ComponentAlgebra;
pub use family::{verify_family, verify_family_with, ComponentFamily, FamilyReport, PairFamily};
pub use filtered::{FilteredOutcome, FilteredView};
pub use horizontal::HorizontalComponents;
pub use pathview::{PathComponents, PathTranslateError};
pub use space::{EditError, EditReport, PoolEdit, PoolError, StateSpace, Verdict};
pub use strategy::{AdmissibilityReport, Strategy};
pub use subschema::SubschemaComponents;
pub use translate::TranslateError;
pub use treeview::TreeComponents;
pub use update::UpdateSpec;
pub use view::{MatView, View};
