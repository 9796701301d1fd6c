//! The expected simulated results every pass is checked against.
//!
//! Each table is tab-separated text compiled into the binary: a row is a
//! cell label (several fields) followed by its expected value fields.
//! Regenerate a table with `--emit-expected` after a change that is meant
//! to move simulated results (see the README).

use std::collections::HashMap;

/// Expected values keyed by cell label.
pub struct Table {
    rows: HashMap<String, String>,
}

impl Table {
    /// Parses the rows starting with `prefix`, whose last `values`
    /// tab-separated fields are the value.
    pub fn parse(text: &str, prefix: &str, values: usize) -> Self {
        let rows = text
            .lines()
            .filter(|l| l.starts_with(prefix) && !l.trim().is_empty())
            .map(|line| {
                let fields: Vec<&str> = line.split('\t').collect();
                assert!(fields.len() > values, "malformed expected row: {line}");
                let split = fields.len() - values;
                (fields[..split].join("\t"), fields[split..].join("\t"))
            })
            .collect();
        Table { rows }
    }

    /// `true` when the table has an entry for `label`.
    pub fn has(&self, label: &str) -> bool {
        self.rows.contains_key(label)
    }

    /// `None` when `label`'s expected value equals `actual`, else what is
    /// wrong.
    pub fn check(&self, label: &str, actual: &str) -> Option<String> {
        match self.rows.get(label) {
            Some(want) if want == actual => None,
            Some(want) => Some(format!("{label}: got {actual}, expected {want}")),
            None => Some(format!("{label}: no expected value")),
        }
    }
}

/// The value field of a simulated cell: `cycles<TAB>instructions`.
pub fn cycles_insts(cycles: u64, instructions: u64) -> String {
    format!("{cycles}\t{instructions}")
}

/// 64-bit FNV-1a: the digest of a serving report's JSON.
pub fn fnv1a(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}
