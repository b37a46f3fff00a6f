//! # tsr-cluster
//!
//! Turns N [`TsrService`](tsr_core::TsrService) instances into one
//! logical trusted-repository service (the paper's §6 deployment
//! sketch: one TSR per continent, mutually replicating).
//!
//! - [`ring`]: rendezvous-hash shard placement — each tenant gets a
//!   primary plus `replication` read replicas, computed identically on
//!   every node from the epoch-versioned
//!   [`ClusterConfigDto`](tsr_wire::ClusterConfigDto),
//! - [`node`]: a service wrapped with the `/v1/cluster/*` protocol —
//!   quorum-replicated refreshes (ack-votes tallied through
//!   [`tsr_quorum::BallotBox`], so Byzantine replicas cannot reach
//!   quorum by lying), seal export/apply, pull-based anti-entropy,
//! - [`transport`]: how nodes reach each other — deterministic
//!   in-process loopback with a fault oracle, or pooled HTTP,
//! - [`router`]: the untrusted forwarding front (primary-first reads
//!   with replica failover; clients keep verifying end-to-end),
//! - [`sim`]: deterministic multi-node chaos scenarios (crash-restart +
//!   partition + Byzantine replica) with traced, replayable runs.
//!
//! Replication safety rests on the same mechanisms as crash recovery:
//! replicas apply pushed state through blob-hash verification, the
//! WAL, the TPM rollback guard, and the sealed-metadata restore path,
//! then re-derive the repository signing key from the shared platform
//! seed — so every honest node serves a **byte-identical signed
//! index**, and clients detect any node that does not.

#![warn(missing_docs)]

pub mod error;
pub mod node;
pub mod ring;
pub mod router;
pub mod sim;
pub mod transport;

pub use error::ClusterError;
pub use node::{AntiEntropyReport, ClusterNode};
pub use ring::{rendezvous_score, Ring, ALLOCATOR_SHARD};
pub use router::ClusterRouter;
pub use sim::{ClusterScenario, ClusterSimReport};
pub use transport::{HttpTransport, LocalCluster, LocalTransport, NodeTransport};
