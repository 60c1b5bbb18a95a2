//! Node-local storage: the recent-readings ring buffer, the circular flash
//! data buffer, and the persistence seam that makes drained readings durable.
//!
//! Two separate buffers exist on every node, exactly as in Sections 5.2 and
//! 5.4 of the paper:
//!
//! * the **recent-readings buffer** (capacity 30) holds the node's *own* most
//!   recent samples and is only used to build the summary histogram;
//! * the **data buffer** is the circular buffer in flash holding the readings
//!   the node *owns* according to the storage index (which may come from any
//!   producer in the network). Queries scan this buffer linearly.
//!
//! [`PersistenceBackend`] is the seam a drained buffer's readings leave
//! through; the disk implementation lives in `scoop-store`.

#![warn(missing_docs)]

pub mod data_buffer;
pub mod persist;
pub mod ring;

pub use data_buffer::DataBuffer;
pub use persist::{FailpointBackend, InMemoryBackend, PersistenceBackend};
pub use ring::RecentReadings;
