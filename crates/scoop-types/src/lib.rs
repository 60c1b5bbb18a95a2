//! Common identifiers, values, time, message classification, and configuration
//! shared by every crate in the Scoop reproduction.
//!
//! The types in this crate correspond to the "wire level" concepts of the
//! paper: node identifiers, sensor attributes and integer sensor values,
//! simulated time, the classification of radio messages used for the paper's
//! cost accounting (data / summary / mapping / query / reply), and the
//! experiment configuration table from Section 6.
//!
//! Nothing in this crate knows about the network simulator, the routing tree,
//! or the storage index algorithm; it is the dependency root of the workspace.

#![warn(missing_docs)]

pub mod config;
pub mod durable;
pub mod error;
pub mod ids;
pub mod message;
pub mod reading;
pub mod serve;
pub mod sketch;
pub mod spec;
pub mod time;
pub mod value;

pub use config::{DataSourceKind, QueryWorkloadConfig, ScoopParams, StoragePolicy};
pub use durable::{attribute_code, attribute_from_code, DurableRecord, DURABLE_RECORD_LEN};
pub use error::ScoopError;
pub use ids::{NodeBitmap, NodeId, SeqNo, StorageIndexId, MAX_NODES};
pub use message::{MessageKind, MessageStats};
pub use reading::Reading;
pub use serve::{
    append_overloaded_frame, append_rows_frame, append_rows_payload, Overloaded, QueryPredicate,
    ServeRequest, ServeResponse, ServeRows, SERVE_REQUEST_LEN,
};
pub use sketch::{AggregateOp, AggregateSpec, PartialAggregate, QDigest};
pub use spec::{
    axis_help, Axis, ChurnEvent, FaultSpec, FaultWindow, LinkFamily, LinkSpec, PolicySpec,
    RangeWorkload, ScenarioSpec, SinkOutage, TopologyKind, TopologySpec, WorkloadKind,
    WorkloadSpec, AXES, MAX_SINKS,
};
pub use time::{SimDuration, SimTime};
pub use value::{Attribute, Value, ValueRange};
