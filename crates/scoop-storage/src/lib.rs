//! Node-local storage: the recent-readings ring buffer, the circular flash
//! data buffer, and a flash capacity/energy model.
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
//! The flash model reproduces the sizing arithmetic from Section 5.5: "With a
//! megabyte of Flash memory, a Scoop node can store about 670,000 12-bit
//! sensor readings."

#![warn(missing_docs)]

pub mod data_buffer;
pub mod flash;
pub mod persist;
pub mod ring;

pub use data_buffer::DataBuffer;
pub use flash::{FlashLedger, FlashModel};
pub use persist::{FailpointBackend, FlashPersistence, InMemoryBackend, PersistenceBackend};
pub use ring::RecentReadings;
