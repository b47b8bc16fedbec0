//! Bounded, timestamped health-monitoring event log.

use std::collections::VecDeque;
use std::fmt;

use air_model::Ticks;

use crate::error_id::{ErrorId, ErrorLevel, ErrorSource};

/// One logged health-monitoring event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HmLogEntry {
    /// When the error was reported.
    pub time: Ticks,
    /// What happened.
    pub error: ErrorId,
    /// Where it was detected.
    pub source: ErrorSource,
    /// The level the system table classified it at.
    pub level: ErrorLevel,
    /// Free-form diagnostic detail (e.g. the missed absolute deadline).
    pub detail: String,
}

impl fmt::Display for HmLogEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} at {} ({} level): {}",
            self.time, self.error, self.source, self.level, self.detail
        )
    }
}

/// A bounded ring of [`HmLogEntry`] values; the oldest entries are evicted
/// once `capacity` is reached — an HM log on a spacecraft must never grow
/// without bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HmLog {
    capacity: usize,
    entries: VecDeque<HmLogEntry>,
    total_recorded: u64,
}

impl HmLog {
    /// Default log capacity.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Creates a log holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "log capacity must be positive");
        Self {
            capacity,
            entries: VecDeque::new(),
            total_recorded: 0,
        }
    }

    /// Creates a log with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Appends `entry`, evicting the oldest if full.
    pub fn record(&mut self, entry: HmLogEntry) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(entry);
        self.total_recorded += 1;
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> std::collections::vec_deque::Iter<'_, HmLogEntry> {
        self.entries.iter()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total events ever recorded (including evicted ones).
    pub fn total_recorded(&self) -> u64 {
        self.total_recorded
    }

    /// The retained entries recorded after the first `recorded` ones,
    /// oldest first: pass the [`total_recorded`](Self::total_recorded)
    /// seen last time to get only the entries that are new since. Entries
    /// already evicted are skipped, so a reader that falls more than
    /// `capacity` entries behind loses the oldest of them.
    pub fn entries_since(
        &self,
        recorded: u64,
    ) -> std::collections::vec_deque::Iter<'_, HmLogEntry> {
        let unseen = self.total_recorded.saturating_sub(recorded);
        let unseen = usize::try_from(unseen).unwrap_or(usize::MAX);
        self.entries
            .range(self.entries.len().saturating_sub(unseen)..)
    }

    /// Retained entries matching `error`, oldest first.
    pub fn entries_for(&self, error: ErrorId) -> impl Iterator<Item = &HmLogEntry> {
        self.entries.iter().filter(move |e| e.error == error)
    }
}

impl Default for HmLog {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use air_model::PartitionId;

    fn entry(t: u64) -> HmLogEntry {
        HmLogEntry {
            time: Ticks(t),
            error: ErrorId::DeadlineMissed,
            source: ErrorSource::Partition(PartitionId(0)),
            level: ErrorLevel::Process,
            detail: String::from("test"),
        }
    }

    #[test]
    fn record_and_iterate() {
        let mut log = HmLog::new();
        assert!(log.is_empty());
        log.record(entry(1));
        log.record(entry(2));
        let times: Vec<u64> = log.entries().map(|e| e.time.as_u64()).collect();
        assert_eq!(times, vec![1, 2]);
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn eviction_keeps_newest() {
        let mut log = HmLog::with_capacity(2);
        log.record(entry(1));
        log.record(entry(2));
        log.record(entry(3));
        let times: Vec<u64> = log.entries().map(|e| e.time.as_u64()).collect();
        assert_eq!(times, vec![2, 3]);
        assert_eq!(log.total_recorded(), 3);
    }

    #[test]
    fn entries_since_survives_eviction() {
        let mut log = HmLog::with_capacity(2);
        let times = |log: &HmLog, seen: u64| -> Vec<u64> {
            log.entries_since(seen).map(|e| e.time.as_u64()).collect()
        };
        log.record(entry(1));
        assert_eq!(times(&log, 0), vec![1]);
        let seen = log.total_recorded();
        log.record(entry(2));
        log.record(entry(3));
        // Full ring: `len()` is stuck at 2, but the count still moves.
        assert_eq!(log.len(), 2);
        assert_eq!(times(&log, seen), vec![2, 3]);
        let seen = log.total_recorded();
        assert!(times(&log, seen).is_empty());
        log.record(entry(4));
        assert_eq!(times(&log, seen), vec![4]);
        // A reader further behind than the capacity gets what is left.
        assert_eq!(times(&log, 0), vec![3, 4]);
    }

    #[test]
    fn filtered_iteration() {
        let mut log = HmLog::new();
        log.record(entry(1));
        let mut other = entry(2);
        other.error = ErrorId::MemoryViolation;
        log.record(other);
        assert_eq!(log.entries_for(ErrorId::DeadlineMissed).count(), 1);
        assert_eq!(log.entries_for(ErrorId::MemoryViolation).count(), 1);
        assert_eq!(log.entries_for(ErrorId::PowerFail).count(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = HmLog::with_capacity(0);
    }

    #[test]
    fn entry_display_is_informative() {
        let e = entry(42);
        let s = e.to_string();
        assert!(s.contains("42t"));
        assert!(s.contains("deadline missed"));
    }
}
