//! Pluggable persistence behind the basestation store.
//!
//! Everything the simulator stores lives in in-memory data buffers and dies
//! with the process. [`PersistenceBackend`] is the seam that changes
//! that *without touching the simulation*: a backend receives batches of the
//! [`Reading`]s drained from those buffers after (or outside) a run and
//! makes them durable. The in-memory default, [`InMemoryBackend`],
//! reproduces today's behavior exactly — readings are held in RAM and lost on drop — so attaching a
//! backend is strictly opt-in and the simulation's byte-identity is
//! untouched. The disk implementation is [`DiskBackend`](crate::DiskBackend)
//! (crash-safe segment log + block-directory time index).

use scoop_types::{Reading, ScoopError};

/// A sink that makes basestation readings durable.
///
/// Implementations must tolerate empty batches and must make `sync` a
/// commit point: after `sync` returns `Ok`, every previously appended
/// reading survives a crash of the process (for backends that persist at
/// all — the in-memory default trivially "commits" to RAM).
pub trait PersistenceBackend {
    /// Appends a batch of readings. Batches arrive in the order the caller
    /// drains them; time-ordering requirements (if any) are the backend's
    /// own contract.
    fn append_batch(&mut self, batch: &[Reading]) -> Result<(), ScoopError>;

    /// Commits everything appended so far.
    fn sync(&mut self) -> Result<(), ScoopError>;

    /// Total readings accepted by `append_batch` over this backend's life.
    fn records_persisted(&self) -> u64;
}

/// The default backend: readings stay in memory, exactly as before this
/// trait existed. Useful as a test double and as the explicit statement
/// that persistence is opt-in.
#[derive(Debug, Default)]
pub struct InMemoryBackend {
    readings: Vec<Reading>,
}

impl InMemoryBackend {
    /// Creates an empty in-memory backend.
    pub fn new() -> Self {
        InMemoryBackend::default()
    }

    /// Everything appended so far, in arrival order.
    pub fn readings(&self) -> &[Reading] {
        &self.readings
    }
}

impl PersistenceBackend for InMemoryBackend {
    fn append_batch(&mut self, batch: &[Reading]) -> Result<(), ScoopError> {
        self.readings.extend_from_slice(batch);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), ScoopError> {
        Ok(())
    }

    fn records_persisted(&self) -> u64 {
        self.readings.len() as u64
    }
}

/// A fault-injecting [`PersistenceBackend`] wrapper: scripted IO failures
/// and torn writes at the seam.
///
/// The script is a set of call indices (0-based, counted per method): when
/// `append_batch` call `i` is scripted to fail, the first
/// [`torn_write_keep`](Self::torn_write_keep) records of that batch still
/// reach the inner backend — a torn write, the prefix is durable and the
/// rest is gone — and the call returns a typed [`ScoopError::Store`].
/// Scripted `sync` failures reject the commit point the same way. Calls not
/// in the script pass through untouched, so a `FailpointBackend` with an
/// empty script is behaviorally the inner backend.
///
/// This exists to prove the *callers* degrade correctly: `scoop-serve
/// --persist` must turn a dying disk into a typed error and keep serving
/// from memory, never panic or silently drop queries.
#[derive(Debug)]
pub struct FailpointBackend<B> {
    inner: B,
    fail_appends: Vec<u64>,
    fail_syncs: Vec<u64>,
    torn_keep: usize,
    appends_seen: u64,
    syncs_seen: u64,
    injected: u64,
}

impl<B: PersistenceBackend> FailpointBackend<B> {
    /// Wraps `inner` with an empty failure script.
    pub fn new(inner: B) -> Self {
        FailpointBackend {
            inner,
            fail_appends: Vec::new(),
            fail_syncs: Vec::new(),
            torn_keep: 0,
            appends_seen: 0,
            syncs_seen: 0,
            injected: 0,
        }
    }

    /// Scripts the `index`-th `append_batch` call (0-based) to fail.
    pub fn fail_append_at(mut self, index: u64) -> Self {
        self.fail_appends.push(index);
        self
    }

    /// Scripts the `index`-th `sync` call (0-based) to fail.
    pub fn fail_sync_at(mut self, index: u64) -> Self {
        self.fail_syncs.push(index);
        self
    }

    /// Records of a failing batch that still land before the error — the
    /// torn-write prefix. Defaults to 0 (the whole batch is lost).
    pub fn torn_write_keep(mut self, records: usize) -> Self {
        self.torn_keep = records;
        self
    }

    /// Failures injected so far.
    pub fn failures_injected(&self) -> u64 {
        self.injected
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Unwraps into the inner backend.
    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: PersistenceBackend> PersistenceBackend for FailpointBackend<B> {
    fn append_batch(&mut self, batch: &[Reading]) -> Result<(), ScoopError> {
        let call = self.appends_seen;
        self.appends_seen += 1;
        if self.fail_appends.contains(&call) {
            self.injected += 1;
            let kept = self.torn_keep.min(batch.len());
            self.inner.append_batch(&batch[..kept])?;
            return Err(ScoopError::Store(format!(
                "failpoint: injected append failure at call {call} \
                 (torn write kept {kept} of {} records)",
                batch.len()
            )));
        }
        self.inner.append_batch(batch)
    }

    fn sync(&mut self) -> Result<(), ScoopError> {
        let call = self.syncs_seen;
        self.syncs_seen += 1;
        if self.fail_syncs.contains(&call) {
            self.injected += 1;
            return Err(ScoopError::Store(format!(
                "failpoint: injected sync failure at call {call}"
            )));
        }
        self.inner.sync()
    }

    fn records_persisted(&self) -> u64 {
        self.inner.records_persisted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_types::{Attribute, NodeId, SimTime};

    #[test]
    fn in_memory_backend_accumulates_and_counts() {
        let batch: Vec<Reading> = (0..5u64)
            .map(|t| Reading::new(NodeId(1), Attribute::Light, t as i32, SimTime::from_secs(t)))
            .collect();

        let mut backend = InMemoryBackend::new();
        backend.append_batch(&[]).unwrap();
        backend.append_batch(&batch).unwrap();
        backend.sync().unwrap();
        assert_eq!(backend.records_persisted(), 5);
        assert_eq!(backend.readings().len(), 5);
        assert_eq!(backend.readings()[0].value, 0);
    }

    #[test]
    fn failpoints_fire_at_their_scripted_calls_and_tear_writes() {
        let batch: Vec<Reading> = (0..4u64)
            .map(|t| Reading::new(NodeId(1), Attribute::Light, t as i32, SimTime::from_secs(t)))
            .collect();
        let mut backend = FailpointBackend::new(InMemoryBackend::new())
            .fail_append_at(1)
            .fail_sync_at(0)
            .torn_write_keep(3);

        // Call 0 passes through untouched.
        backend.append_batch(&batch).unwrap();
        assert_eq!(backend.records_persisted(), 4);

        // Call 1 tears: the 3-record prefix lands, then the typed error.
        let err = backend.append_batch(&batch).expect_err("scripted failure");
        let shown = err.to_string();
        assert!(shown.contains("torn write kept 3 of 4"), "{shown}");
        assert!(matches!(err, ScoopError::Store(_)), "typed as Store");
        assert_eq!(backend.records_persisted(), 7, "prefix is durable");
        assert_eq!(backend.inner().readings()[4].value, 0);

        // Call 2 is past the script: clean again.
        backend.append_batch(&batch).unwrap();
        assert_eq!(backend.records_persisted(), 11);

        // The first commit point is scripted away; the second works.
        let err = backend.sync().expect_err("scripted sync failure");
        assert!(matches!(err, ScoopError::Store(_)));
        backend.sync().unwrap();
        assert_eq!(backend.failures_injected(), 2);
        assert_eq!(backend.into_inner().readings().len(), 11);
    }
}
