//! The metadata log.
//!
//! The Cluster Controller drives rebalance recovery from its metadata
//! records `BEGIN` / `SHIP` / `COMMIT` / `ABORT` / `DONE` alone (Section V),
//! and this is the only log the system keeps. Concurrent writes to a moving
//! bucket are not logged and replayed: the cluster applies each one to the
//! destination's pending copy directly (Section V-C).
//!
//! The simulated log is an in-memory append-only vector with explicit
//! `force()` points (records are only considered durable once forced), which
//! lets the fault-injection tests model "the controller failed before the
//! record reached disk".

/// Log sequence number.
pub type Lsn = u64;

/// Identifier of a rebalance operation (metadata transaction id).
pub type RebalanceId = u64;

/// One bucket move executed by shipping sealed components, as recorded in
/// the metadata log. Identifiers are primitive so the log stays
/// storage-agnostic; `bucket_bits`/`bucket_depth` encode the
/// [`crate::bucket::BucketId`] and `from`/`to` are partition ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShippedMove {
    /// The moved bucket's hash bits.
    pub bucket_bits: u32,
    /// The moved bucket's depth.
    pub bucket_depth: u8,
    /// Source partition id.
    pub from: u32,
    /// Destination partition id.
    pub to: u32,
    /// Identifiers of the sealed components that were shipped whole (empty
    /// for a record-level move).
    pub component_ids: Vec<u64>,
    /// Visible bytes transferred.
    pub bytes: u64,
    /// Entries transferred: those visible through the shipped components'
    /// handles (an upper bound on live records, since shadowed versions and
    /// tombstones count too), or a feed-staged bucket's exact record count.
    pub entries: u64,
}

/// The payload of a log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecordBody {
    /// A record-level insert. Nothing in the cluster writes or reads it: it
    /// exists only because the benchmark's `lsm.wal_append` span builds one
    /// per record, and goes together with that span.
    Insert {
        /// Dataset identifier.
        dataset: u32,
        /// Primary key.
        key: Vec<u8>,
        /// Record payload.
        value: Vec<u8>,
    },
    /// A rebalance operation has started (forced by the CC).
    RebalanceBegin {
        /// The rebalance operation id.
        rebalance: RebalanceId,
        /// The dataset being rebalanced.
        dataset: u32,
    },
    /// A wave of the rebalance shipped buckets to their destinations (forced
    /// by the CC after the wave completes). Recovery replays these moves: a
    /// destination that lost its uncommitted pending state is re-shipped the
    /// listed buckets from their sources before the commit installs them.
    RebalanceShip {
        /// The rebalance operation id.
        rebalance: RebalanceId,
        /// The dataset being rebalanced.
        dataset: u32,
        /// The wave index (0-based).
        wave: u32,
        /// The moves the wave executed.
        moves: Vec<ShippedMove>,
    },
    /// The rebalance operation committed (forced by the CC).
    RebalanceCommit {
        /// The rebalance operation id.
        rebalance: RebalanceId,
    },
    /// The rebalance operation aborted.
    RebalanceAbort {
        /// The rebalance operation id.
        rebalance: RebalanceId,
    },
    /// No more work is needed for this rebalance operation.
    RebalanceDone {
        /// The rebalance operation id.
        rebalance: RebalanceId,
    },
}

/// A log record with its sequence number and durability status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Sequence number, monotonically increasing per log.
    pub lsn: Lsn,
    /// The record body.
    pub body: LogRecordBody,
    /// Whether the record has been forced to (simulated) disk.
    pub durable: bool,
}

/// An append-only transaction log.
#[derive(Debug, Default, Clone)]
pub struct TransactionLog {
    records: Vec<LogRecord>,
    next_lsn: Lsn,
}

impl TransactionLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record without forcing it. Returns its LSN.
    pub fn append(&mut self, body: LogRecordBody) -> Lsn {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.records.push(LogRecord {
            lsn,
            body,
            durable: false,
        });
        lsn
    }

    /// Appends a record and forces the log up to and including it.
    pub fn append_forced(&mut self, body: LogRecordBody) -> Lsn {
        let lsn = self.append(body);
        self.force();
        lsn
    }

    /// Forces all appended records to disk (they become durable).
    pub fn force(&mut self) {
        for r in self.records.iter_mut() {
            r.durable = true;
        }
    }

    /// Simulates a crash: non-durable records are lost.
    pub fn crash(&mut self) {
        self.records.retain(|r| r.durable);
        self.next_lsn = self.records.last().map(|r| r.lsn + 1).unwrap_or(0);
    }

    /// All records currently in the log.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Finds the status of a rebalance operation from the durable metadata
    /// records, as the CC does during recovery (Section V-D):
    /// `BEGIN` without `COMMIT` ⇒ must abort; `COMMIT` without `DONE` ⇒ must
    /// re-drive the commit; `DONE` ⇒ nothing to do.
    pub fn rebalance_status(&self, rebalance: RebalanceId) -> RebalanceLogStatus {
        let mut saw_begin = false;
        let mut saw_commit = false;
        let mut saw_abort = false;
        let mut saw_done = false;
        for r in self.records.iter().filter(|r| r.durable) {
            match r.body {
                LogRecordBody::RebalanceBegin { rebalance: id, .. } if id == rebalance => {
                    saw_begin = true
                }
                LogRecordBody::RebalanceCommit { rebalance: id } if id == rebalance => {
                    saw_commit = true
                }
                LogRecordBody::RebalanceAbort { rebalance: id } if id == rebalance => {
                    saw_abort = true
                }
                LogRecordBody::RebalanceDone { rebalance: id } if id == rebalance => {
                    saw_done = true
                }
                _ => {}
            }
        }
        if saw_done {
            RebalanceLogStatus::Done
        } else if saw_commit {
            RebalanceLogStatus::CommittedNotDone
        } else if saw_abort {
            RebalanceLogStatus::Aborted
        } else if saw_begin {
            RebalanceLogStatus::InFlight
        } else {
            RebalanceLogStatus::Unknown
        }
    }

    /// The durable component-level moves of a rebalance operation, in ship
    /// order. Recovery uses this to re-ship buckets whose destination lost
    /// its uncommitted pending state.
    pub fn shipped_moves(&self, rebalance: RebalanceId) -> Vec<&ShippedMove> {
        self.records
            .iter()
            .filter(|r| r.durable)
            .filter_map(|r| match &r.body {
                LogRecordBody::RebalanceShip {
                    rebalance: id,
                    moves,
                    ..
                } if *id == rebalance => Some(moves.iter()),
                _ => None,
            })
            .flatten()
            .collect()
    }
}

/// Status of a rebalance operation as reconstructed from the durable log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceLogStatus {
    /// No durable record of this rebalance exists.
    Unknown,
    /// BEGIN is durable but no outcome record is: the CC must abort it.
    InFlight,
    /// COMMIT is durable but DONE is not: the CC must re-drive commit tasks.
    CommittedNotDone,
    /// The rebalance aborted.
    Aborted,
    /// The rebalance fully completed.
    Done,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_assigns_increasing_lsns() {
        let mut log = TransactionLog::new();
        let a = log.append(LogRecordBody::RebalanceBegin {
            rebalance: 1,
            dataset: 1,
        });
        let b = log.append_forced(LogRecordBody::RebalanceCommit { rebalance: 1 });
        let c = log.append(LogRecordBody::RebalanceDone { rebalance: 1 });
        assert!(a < b && b < c);
        assert_eq!(log.len(), 3);
        assert_eq!(
            log.records().iter().map(|r| r.lsn).collect::<Vec<_>>(),
            [a, b, c]
        );
    }

    #[test]
    fn crash_loses_unforced_records() {
        let mut log = TransactionLog::new();
        log.append_forced(LogRecordBody::RebalanceBegin {
            rebalance: 1,
            dataset: 9,
        });
        log.append(LogRecordBody::RebalanceCommit { rebalance: 1 });
        log.crash();
        assert_eq!(log.len(), 1);
        assert_eq!(log.rebalance_status(1), RebalanceLogStatus::InFlight);
    }

    #[test]
    fn rebalance_status_progression() {
        let mut log = TransactionLog::new();
        assert_eq!(log.rebalance_status(5), RebalanceLogStatus::Unknown);
        log.append_forced(LogRecordBody::RebalanceBegin {
            rebalance: 5,
            dataset: 1,
        });
        assert_eq!(log.rebalance_status(5), RebalanceLogStatus::InFlight);
        log.append_forced(LogRecordBody::RebalanceCommit { rebalance: 5 });
        assert_eq!(
            log.rebalance_status(5),
            RebalanceLogStatus::CommittedNotDone
        );
        log.append_forced(LogRecordBody::RebalanceDone { rebalance: 5 });
        assert_eq!(log.rebalance_status(5), RebalanceLogStatus::Done);
    }

    #[test]
    fn aborted_status_reported() {
        let mut log = TransactionLog::new();
        log.append_forced(LogRecordBody::RebalanceBegin {
            rebalance: 2,
            dataset: 1,
        });
        log.append_forced(LogRecordBody::RebalanceAbort { rebalance: 2 });
        assert_eq!(log.rebalance_status(2), RebalanceLogStatus::Aborted);
    }

    #[test]
    fn shipped_moves_survive_only_when_forced() {
        let mut log = TransactionLog::new();
        let mv = ShippedMove {
            bucket_bits: 3,
            bucket_depth: 2,
            from: 0,
            to: 5,
            component_ids: vec![11, 12],
            bytes: 4096,
            entries: 32,
        };
        log.append_forced(LogRecordBody::RebalanceShip {
            rebalance: 9,
            dataset: 1,
            wave: 0,
            moves: vec![mv.clone()],
        });
        log.append(LogRecordBody::RebalanceShip {
            rebalance: 9,
            dataset: 1,
            wave: 1,
            moves: vec![mv.clone()],
        });
        log.crash();
        let shipped = log.shipped_moves(9);
        assert_eq!(shipped.len(), 1, "unforced ship record lost in the crash");
        assert_eq!(shipped[0], &mv);
        assert!(log.shipped_moves(8).is_empty());
    }
}
