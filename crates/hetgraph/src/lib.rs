//! # fedda-hetgraph
//!
//! Heterogeneous graph storage and sampling for the FedDA reproduction.
//!
//! A heterograph `H = {V, E, φ, ψ, X}` (paper §3) has multi-typed nodes with
//! per-type feature spaces and multi-typed edges whose types are tied to
//! their endpoint node types. This crate provides:
//!
//! * [`Schema`] — the node/edge type universe;
//! * [`NodeStore`] — the immutable node universe (types + features), shared
//!   via `Arc` between the global graph and every client sub-heterograph so
//!   node identities stay aligned across the federation;
//! * [`HeteroGraph`] — per-edge-type edge lists over a `NodeStore`, with
//!   flattened [`MessageEdges`] views for GNN message passing (symmetric
//!   relations are mirrored, self-loops get a pseudo edge type);
//! * [`split`] — stratified train/test edge splits and fractional edge
//!   sampling (the building blocks of the paper's system synthesis);
//! * [`LinkSampler`] — positive/negative link-prediction examples with
//!   type-respecting negative corruption;
//! * [`io`] — JSON snapshots ([`io::GraphDoc`]) so synthesized federations
//!   can be archived and reloaded bit-identically.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]
// Determinism & safety invariants D3 / D4 (DESIGN.md §6), run by `cargo lint`.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]

mod graph;
pub mod io;
mod sampling;
mod schema;
pub mod split;

pub use graph::{EdgeList, HeteroGraph, MessageEdges, NodeId, NodeStore};
pub use sampling::{EdgeIndex, LinkExample, LinkSampler};
pub use schema::{EdgeTypeId, EdgeTypeMeta, NodeTypeId, NodeTypeMeta, Schema};
