//! Bit digests of program outputs and the reference digests they are
//! checked against.

use eua_sim::Metrics;

/// FNV-1a, 64-bit: enough to pin bit-identical outputs, not a
/// cryptographic commitment.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of every field of a run's [`Metrics`], floats by their bits.
pub fn metrics_digest(m: &Metrics) -> u64 {
    let mut h = Fnv::new();
    h.u64(m.horizon.as_micros());
    h.f64(m.total_utility);
    h.f64(m.max_possible_utility);
    h.f64(m.energy);
    h.u64(m.busy_time.as_micros());
    h.u64(m.context_switches);
    h.u64(m.preemptions);
    h.u64(m.frequency_changes);
    for t in &m.per_task {
        for v in [
            t.arrived,
            t.completed,
            t.aborted_by_termination,
            t.aborted_by_policy,
            t.observable,
            t.assured,
            t.critical_met,
        ] {
            h.u64(v);
        }
        h.f64(t.utility);
        h.f64(t.max_utility);
        h.u64(t.max_lateness_us as u64);
    }
    for r in &m.freq_residency {
        h.u64(r.mhz);
        h.u64(r.busy.as_micros());
    }
    h.finish()
}

/// Reference digests of one workload, compiled in from
/// `reference/<workload>.txt`: one line per key, `key d1,d2,...` with
/// hexadecimal digests in unit (or cell-block) order. The key is the
/// seed, or `pool` for a workload whose outputs do not depend on it.
pub fn reference(workload: &str, key: &str) -> Option<Vec<u64>> {
    let text = match workload {
        "fig2-sweep" => include_str!("../reference/fig2-sweep.txt"),
        "overload-backlog" => include_str!("../reference/overload-backlog.txt"),
        "chaos-audited" => include_str!("../reference/chaos-audited.txt"),
        "chaos-plain" => include_str!("../reference/chaos-plain.txt"),
        _ => return None,
    };
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .find(|&(k, _)| k == key)
        .map(|(_, list)| {
            list.split(',')
                .filter_map(|d| u64::from_str_radix(d.trim(), 16).ok())
                .collect()
        })
}

/// A reference line for `key`, as [`reference`] reads it.
pub fn reference_line(key: &str, digests: &[u64]) -> String {
    let list: Vec<String> = digests.iter().map(|d| format!("{d:016x}")).collect();
    format!("{key} {}", list.join(","))
}

/// Checks observed digests against a reference, position by position,
/// and against the first observation of the same position (outputs
/// must not change between passes). Counts units checked and failed.
pub struct Verifier {
    expected: Option<Vec<u64>>,
    first: Vec<Option<u64>>,
    pub checked_against_reference: u64,
    pub mismatches: Vec<String>,
}

impl Verifier {
    pub fn new(workload: &str, key: &str) -> Self {
        Verifier {
            expected: reference(workload, key),
            first: Vec::new(),
            checked_against_reference: 0,
            mismatches: Vec::new(),
        }
    }

    pub fn has_reference(&self) -> bool {
        self.expected.is_some()
    }

    /// Records the digest at `pos`; returns whether it is accepted.
    pub fn check(&mut self, pos: usize, digest: u64, label: &str) -> bool {
        if self.first.len() <= pos {
            self.first.resize(pos + 1, None);
        }
        let mut ok = true;
        match self.first[pos] {
            Some(prev) if prev != digest => {
                ok = false;
                self.note(format!("{label}: output changed between passes"));
            }
            Some(_) => {}
            None => {
                self.first[pos] = Some(digest);
                if let Some(expected) = &self.expected {
                    match expected.get(pos) {
                        Some(&want) => {
                            self.checked_against_reference += 1;
                            if want != digest {
                                ok = false;
                                self.note(format!(
                                    "{label}: digest {digest:016x} differs from reference {want:016x}"
                                ));
                            }
                        }
                        None => {
                            ok = false;
                            self.note(format!("{label}: beyond the stored reference"));
                        }
                    }
                }
            }
        }
        ok
    }

    pub fn note(&mut self, message: String) {
        if self.mismatches.len() < 20 {
            self.mismatches.push(message);
        }
    }
}
