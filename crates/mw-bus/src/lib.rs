//! The distribution substrate of the MiddleWhere reproduction.
//!
//! The original system uses CORBA (Orbacus) for communication between
//! MiddleWhere components, applications and adapters, plus the Gaia
//! *Space Repository* for service discovery (§7). This crate provides the
//! equivalent capabilities over in-process channels:
//!
//! - [`Broker`] — the message bus every component attaches to,
//! - service **registry**: services register under a name; applications
//!   discover them ("Gaia applications can discover the location service
//!   … by querying the Gaia Space Repository service"),
//! - **RPC** (the pull model): typed request/reply with a timeout,
//! - **pub/sub topics** (the push model): trigger notifications are
//!   published to a topic and fan out to all subscribers,
//! - a **TCP bridge** ([`remote`]) for cross-process delivery, with a
//!   checksummed, sequence-numbered frame protocol ([`transport`]) and a
//!   deterministic fault-injection layer ([`fault`]) for chaos testing.
//!
//! Transport identity is irrelevant to the paper's algorithms; latency
//! numbers in the benchmarks are re-based on this bus (shape over
//! absolute values, per the reproduction notes in `EXPERIMENTS.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod broker;
mod error;
pub mod fault;
mod queue;
pub mod remote;
pub mod remote_rpc;
mod rpc;
pub mod stats;
mod topic;
pub mod transport;

pub use broker::Broker;
pub use error::BusError;
pub use queue::OverflowPolicy;
pub use remote_rpc::{RemoteRpcClient, RemoteRpcServer, RpcServerOptions, RpcServerStats};
pub use rpc::{RpcClient, RpcServer};
pub use topic::{Publisher, Subscription};
