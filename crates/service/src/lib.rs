//! `qcoral-service`: a batching quantification server with a persistent
//! cross-run factor cache.
//!
//! The paper's compositional scheme pays off most when the *same*
//! independent factors recur across many queries — exactly the shape of
//! a long-lived service answering quantification requests. This crate
//! turns the library into that service:
//!
//! * **Transport** — JSON-lines over plain TCP (`std::net`): one JSON
//!   object per line in each direction, ids correlate responses
//!   ([`wire`], [`protocol`]).
//! * **Scheduling** — a bounded admission queue feeding a fixed worker
//!   pool in micro-batches; overload rejects fast with an error
//!   response ([`scheduler`]). Persistence stays off the request path:
//!   a write-ahead log makes each new factor estimate durable, and a
//!   timer compacts it into the snapshot ([`store`]).
//! * **The headline mechanism** — a **cross-run factor-estimate store**
//!   ([`qcoral::FactorStore`]): factor results keyed by canonical factor
//!   form × projected profile × a fingerprint of the sampling options
//!   survive across requests, and — via a versioned snapshot of
//!   checksummed JSON lines on disk ([`store`]) — across restarts. Because every sampling seed
//!   derives from the canonical factor key, a store hit is
//!   *bit-identical* to recomputation: a warm service answers recurring
//!   factors with zero new pavings and zero new samples, without
//!   perturbing any estimate. This is Algorithm 2's caching lifted from
//!   one analysis to the service's whole lifetime.
//!
//! # Quick start
//!
//! ```
//! use qcoral::Options;
//! use qcoral_service::{Client, Server, ServiceConfig};
//!
//! let server = Server::start(ServiceConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let answer = client
//!     .analyze_system(
//!         "var x in [0, 1]; pc x < 0.25;",
//!         Options::default().with_samples(2_000),
//!         None,
//!     )
//!     .unwrap();
//! assert!((answer.report.estimate.mean - 0.25).abs() < 0.02);
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod scheduler;
pub mod server;
pub mod store;
pub mod wire;

pub use client::{Client, ClientError, RetryPolicy};
pub use protocol::{
    AnalysisResponse, FailpointStatus, MetricsReport, NamedDist, Op, Outcome, Request, Response,
    ServerStatus, PROTOCOL_VERSION,
};
pub use scheduler::SchedulerMetrics;
pub use server::{Server, ServiceConfig};
pub use store::{PersistentStore, RecoveryReport, SNAPSHOT_VERSION};
