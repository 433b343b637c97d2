//! idar-server: multi-tenant analysis-as-a-service over the unified
//! pipeline.
//!
//! A long-running, std-only HTTP/1.1 service exposing the
//! `AnalysisRequest`-shaped operations (stateless analyze plus live
//! `FormManager` sessions with vet / submit / safe-updates) to multiple
//! tenants over a bounded worker pool, under three disciplines:
//!
//! * **one thread budget** — the worker pool is sized by
//!   `split_threads` and every analysis runs single-threaded, so
//!   concurrent requests never oversubscribe the host;
//! * **one verdict cache** — process-wide and keyed by rules signature,
//!   so tenants running identical rule sets share entries (a popular
//!   form is analyzed once, served many times);
//! * **one admission contract** — every request runs under the server
//!   [`Budget`](idar_solver::Budget), and excess load is shed with
//!   `429 + Retry-After` *before* the request is parsed or dispatched,
//!   so a shed request can never partially mutate a session.
//!
//! Start one with [`Server::start`]; drive it with the `idar-load`
//! generator in the bench crate, or any HTTP client:
//!
//! ```no_run
//! use idar_server::{Server, ServerConfig};
//! let handle = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
//! println!("serving on {}", handle.addr());
//! let finals = handle.shutdown(); // graceful drain
//! assert_eq!(finals.accepted, finals.completed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod routes;
pub mod server;
pub mod state;

pub use http::{HttpLimits, Request, Response};
pub use routes::verdict_tag;
pub use server::{Server, ServerConfig, ServerHandle};
pub use state::{Gate, Metrics, MetricsSnapshot};
