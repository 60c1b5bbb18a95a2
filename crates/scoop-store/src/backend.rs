//! The disk implementation of `scoop-storage`'s [`PersistenceBackend`].
//!
//! [`DiskBackend`] adapts a [`Store`] to the backend trait: batches of
//! the [`Reading`]s drained from simulator data buffers are converted to
//! [`DurableRecord`]s and appended; `sync` is the commit point (flush +
//! fsync). Attaching it is opt-in — nothing in the simulator constructs
//! one — so the default in-memory behavior and the sim's byte-identity are
//! untouched.

use crate::error::Result;
use crate::store::{Store, StoreOptions};
use scoop_storage::PersistenceBackend;
use scoop_types::{DurableRecord, Reading, ScoopError};
use std::path::Path;

/// A [`PersistenceBackend`] that lands readings in a crash-safe [`Store`].
#[derive(Debug)]
pub struct DiskBackend {
    store: Store,
    records_persisted: u64,
    /// The batch being converted, reused across calls.
    records: Vec<DurableRecord>,
}

impl DiskBackend {
    /// Opens (creating if needed) the store in `dir`.
    pub fn open(dir: &Path, options: StoreOptions) -> Result<Self> {
        Ok(DiskBackend::from_store(Store::open(dir, options)?))
    }

    /// Wraps an already-open store.
    pub fn from_store(store: Store) -> Self {
        DiskBackend {
            store,
            records_persisted: 0,
            records: Vec::new(),
        }
    }

    /// Consumes the backend, returning the store.
    pub fn into_store(self) -> Store {
        self.store
    }
}

impl PersistenceBackend for DiskBackend {
    fn append_batch(&mut self, batch: &[Reading]) -> std::result::Result<(), ScoopError> {
        if batch.is_empty() {
            return Ok(());
        }
        self.records.clear();
        self.records
            .extend(batch.iter().map(DurableRecord::from_reading));
        self.store.append_batch(&self.records)?;
        self.records_persisted += self.records.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> std::result::Result<(), ScoopError> {
        self.store.sync()?;
        Ok(())
    }

    fn records_persisted(&self) -> u64 {
        self.records_persisted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_storage::DataBuffer;
    use scoop_types::{Attribute, NodeId, SimTime, StorageIndexId};

    #[test]
    fn disk_backend_round_trips_simulator_readings() {
        let dir = std::env::temp_dir().join(format!("scoop-store-backend-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut buf = DataBuffer::new(16);
        for t in 1..=10u64 {
            buf.store(
                Reading::new(
                    NodeId(t as u16),
                    Attribute::Light,
                    t as i32 * 10,
                    SimTime::from_secs(t),
                ),
                SimTime::from_secs(t),
                StorageIndexId(1),
            );
        }
        let batch: Vec<Reading> = buf.iter().copied().collect();

        let mut backend = DiskBackend::open(
            &dir,
            StoreOptions {
                block_size: 8 + 16 * 4,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        backend.append_batch(&batch).unwrap();
        backend.sync().unwrap();
        assert_eq!(backend.records_persisted(), 10);

        let mut store = backend.into_store();
        let all = store.scan_all().unwrap();
        assert_eq!(all.records.len(), 10);
        let readings: Vec<Reading> = all
            .records
            .iter()
            .map(|r| r.to_reading().expect("known attribute"))
            .collect();
        assert!(readings.iter().any(|r| r.value == 50));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
