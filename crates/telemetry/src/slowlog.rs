//! Bounded in-memory slow-request log: keeps the N slowest request traces
//! whose duration met a threshold, for surfacing at `GET /debug/slow`.

use std::sync::Mutex;

/// One logged request.
#[derive(Clone, Debug)]
pub struct SlowEntry {
    /// Monotone per-process request id.
    pub id: u64,
    /// Route label, e.g. `explore`.
    pub route: &'static str,
    /// Name of the graph that served the request.
    pub graph: String,
    /// HTTP status returned.
    pub status: u16,
    /// Snapshot generation that served the request.
    pub generation: u64,
    /// Wall-clock duration in milliseconds.
    pub duration_ms: u64,
    /// Unix timestamp (milliseconds) at completion.
    pub unix_ms: u64,
    /// Rendered span-tree JSON (a `{"total_us":..,"spans":[..]}` object).
    pub trace_json: String,
}

impl SlowEntry {
    fn to_json(&self) -> String {
        format!(
            "{{\"id\":{},\"route\":\"{}\",\"graph\":\"{}\",\"status\":{},\"generation\":{},\"duration_ms\":{},\"unix_ms\":{},\"trace\":{}}}",
            self.id, self.route, self.graph, self.status, self.generation, self.duration_ms,
            self.unix_ms, self.trace_json,
        )
    }
}

/// Keeps the `capacity` worst (slowest) entries at or over `threshold_ms`.
pub struct SlowLog {
    threshold_ms: u64,
    capacity: usize,
    entries: Mutex<Vec<SlowEntry>>,
}

impl SlowLog {
    pub fn new(threshold_ms: u64, capacity: usize) -> Self {
        SlowLog { threshold_ms, capacity: capacity.max(1), entries: Mutex::new(Vec::new()) }
    }

    pub fn threshold_ms(&self) -> u64 {
        self.threshold_ms
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records an entry if it meets the threshold and is among the worst
    /// `capacity` seen so far.
    pub fn record(&self, entry: SlowEntry) {
        if entry.duration_ms < self.threshold_ms {
            return;
        }
        let mut entries = self.entries.lock().unwrap();
        if entries.len() < self.capacity {
            entries.push(entry);
            return;
        }
        // Replace the fastest logged entry if the new one is slower;
        // ties keep the incumbent (earlier ids win).
        if let Some(min_idx) = (0..entries.len())
            .min_by_key(|&i| (entries[i].duration_ms, u64::MAX - entries[i].id))
        {
            if entry.duration_ms > entries[min_idx].duration_ms {
                entries[min_idx] = entry;
            }
        }
    }

    /// The logged entries, slowest first (ties by ascending id).
    pub(crate) fn snapshot(&self) -> Vec<SlowEntry> {
        let mut entries = self.entries.lock().unwrap().clone();
        entries.sort_by_key(|e| (u64::MAX - e.duration_ms, e.id));
        entries
    }

    /// Renders the whole log as one JSON object.
    pub fn to_json(&self) -> String {
        let entries = self.snapshot();
        let mut out = format!(
            "{{\"threshold_ms\":{},\"capacity\":{},\"entries\":[",
            self.threshold_ms, self.capacity
        );
        for (i, e) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&e.to_json());
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64, duration_ms: u64) -> SlowEntry {
        SlowEntry {
            id,
            route: "explore",
            graph: "default".to_owned(),
            status: 200,
            generation: 1,
            duration_ms,
            unix_ms: 0,
            trace_json: "{\"total_us\":0,\"spans\":[]}".to_owned(),
        }
    }

    #[test]
    fn keeps_only_the_worst_n() {
        let log = SlowLog::new(0, 2);
        log.record(entry(1, 10));
        log.record(entry(2, 30));
        log.record(entry(3, 20));
        log.record(entry(4, 5)); // too fast to displace anything
        let ids: Vec<u64> = log.snapshot().iter().map(|e| e.id).collect();
        assert_eq!(ids, [2, 3]);
    }

    #[test]
    fn threshold_filters_entries() {
        let log = SlowLog::new(100, 4);
        log.record(entry(1, 99));
        log.record(entry(2, 100));
        assert_eq!(log.snapshot().len(), 1);
    }

    #[test]
    fn json_has_stable_envelope() {
        let log = SlowLog::new(5, 3);
        log.record(entry(7, 12));
        let json = log.to_json();
        assert!(json.starts_with("{\"threshold_ms\":5,\"capacity\":3,\"entries\":["), "{json}");
        assert!(json.contains("\"id\":7"), "{json}");
        assert!(json.contains("\"graph\":\"default\""), "{json}");
        assert!(json.contains("\"trace\":{\"total_us\":0"), "{json}");
    }
}
