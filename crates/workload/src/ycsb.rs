//! YCSB-style key-value workloads.
//!
//! The paper evaluates Smallbank only; scaling work needs the standard cloud-serving mixes:
//! a configurable read / blind-update / read-modify-write operation mix over a Zipfian-skewed
//! key population (YCSB A/B/C/F shapes).

use crate::zipf::Zipfian;
use eov_common::rwset::{Key, Value};
use fabricsharp_core::endorser::SimulationContext;
use rand::rngs::StdRng;
use rand::Rng;

/// Key of the `i`-th YCSB record.
pub(crate) fn ycsb_key(index: usize) -> Key {
    Key::from_fmt(format_args!("usertable:{index}"))
}

/// Genesis entries for `records` YCSB records, each starting at value 0.
pub(crate) fn ycsb_genesis(records: usize) -> Vec<(Key, Value)> {
    (0..records)
        .map(|i| (ycsb_key(i), Value::from_i64(0)))
        .collect()
}

/// The YCSB operation mix.
///
/// `read_fraction + update_fraction <= 1`; the remainder of the mix is read-modify-write
/// (the YCSB-F shape).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct YcsbProfile {
    /// Fraction of operations that only read.
    pub(crate) read_fraction: f64,
    /// Fraction of operations that blindly overwrite.
    pub(crate) update_fraction: f64,
    /// Zipfian skew over the record population (YCSB's default is 0.99).
    pub(crate) theta: f64,
    /// Operations (distinct keys) per transaction.
    pub(crate) ops_per_txn: usize,
}

impl YcsbProfile {
    /// YCSB-A: 50% reads / 50% updates, Zipfian 0.99.
    pub fn a() -> Self {
        YcsbProfile {
            read_fraction: 0.5,
            update_fraction: 0.5,
            theta: 0.99,
            ops_per_txn: 4,
        }
    }

    /// YCSB-B: 95% reads / 5% updates, Zipfian 0.99.
    pub fn b() -> Self {
        YcsbProfile {
            read_fraction: 0.95,
            update_fraction: 0.05,
            ..Self::a()
        }
    }

    /// YCSB-C: 100% reads, Zipfian 0.99 — the whole mix is in the template-safe class.
    pub fn c() -> Self {
        YcsbProfile {
            read_fraction: 1.0,
            update_fraction: 0.0,
            ..Self::a()
        }
    }

    /// YCSB-F: 50% reads / 50% read-modify-writes, Zipfian 0.99.
    pub fn f() -> Self {
        YcsbProfile {
            read_fraction: 0.5,
            update_fraction: 0.0,
            ..Self::a()
        }
    }

    /// The implied read-modify-write fraction.
    pub(crate) fn rmw_fraction(&self) -> f64 {
        (1.0 - self.read_fraction - self.update_fraction).max(0.0)
    }
}

/// One YCSB operation inside a transaction.
#[derive(Clone, Debug, PartialEq)]
pub enum YcsbOp {
    /// Read the record.
    Read {
        /// Record index.
        index: usize,
    },
    /// Blindly overwrite the record.
    Update {
        /// Record index.
        index: usize,
        /// The new value.
        value: i64,
    },
    /// Read the record and write a derived value back.
    ReadModifyWrite {
        /// Record index.
        index: usize,
        /// Added to the read value.
        delta: i64,
    },
}

impl YcsbOp {
    /// The record index this operation touches.
    pub(crate) fn index(&self) -> usize {
        match self {
            YcsbOp::Read { index }
            | YcsbOp::Update { index, .. }
            | YcsbOp::ReadModifyWrite { index, .. } => *index,
        }
    }

    /// Whether the operation performs a snapshot read.
    pub(crate) fn reads(&self) -> bool {
        !matches!(self, YcsbOp::Update { .. })
    }
}

/// A materialised YCSB transaction template: the operations to run in order.
#[derive(Clone, Debug, PartialEq)]
pub struct YcsbTxn {
    /// The operations, over distinct record indices.
    pub(crate) ops: Vec<YcsbOp>,
}

impl YcsbTxn {
    /// Number of snapshot reads (drives the simulator's read-interval timing model).
    pub(crate) fn read_count(&self) -> usize {
        self.ops.iter().filter(|op| op.reads()).count()
    }

    /// Runs the transaction's contract logic inside a simulation context.
    pub(crate) fn run(&self, ctx: &mut SimulationContext<'_>) {
        for op in &self.ops {
            let key = ycsb_key(op.index());
            match op {
                YcsbOp::Read { .. } => {
                    let _ = ctx.read_balance(&key);
                }
                YcsbOp::Update { value, .. } => {
                    ctx.write(key, Value::from_i64(*value));
                }
                YcsbOp::ReadModifyWrite { delta, .. } => {
                    let current = ctx.read_balance(&key);
                    ctx.write(key, Value::from_i64(current + delta));
                }
            }
        }
    }
}

/// Draws one YCSB transaction: `ops_per_txn` distinct Zipfian keys, each with an operation
/// from the configured mix.
pub(crate) fn next_ycsb_txn(
    profile: &YcsbProfile,
    zipf: &Zipfian,
    records: usize,
    rng: &mut StdRng,
) -> YcsbTxn {
    let mut indices: Vec<usize> = Vec::with_capacity(profile.ops_per_txn);
    indices.push(zipf.sample(rng));
    while indices.len() < profile.ops_per_txn.max(1) {
        // Resampling keeps the Zipfian shape; the bounded linear probe guarantees termination
        // even under extreme skew.
        let mut index = zipf.sample(rng);
        for _ in 0..64 {
            if !indices.contains(&index) {
                break;
            }
            index = zipf.sample(rng);
        }
        for _ in 0..records {
            if !indices.contains(&index) {
                break;
            }
            index = (index + 1) % records;
        }
        // When the linear scan exhausts a tiny population, `index` is still a duplicate:
        // accept a shorter transaction instead.
        if indices.contains(&index) {
            break;
        }
        indices.push(index);
    }

    let ops = indices
        .into_iter()
        .map(|index| {
            let roll: f64 = rng.gen_range(0.0..1.0);
            if roll < profile.read_fraction {
                YcsbOp::Read { index }
            } else if roll < profile.read_fraction + profile.update_fraction {
                YcsbOp::Update {
                    index,
                    value: rng.gen_range(0..1_000_000),
                }
            } else {
                YcsbOp::ReadModifyWrite {
                    index,
                    delta: rng.gen_range(1..100),
                }
            }
        })
        .collect();
    YcsbTxn { ops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn draw(profile: YcsbProfile, records: usize, n: usize, seed: u64) -> Vec<YcsbTxn> {
        let zipf = Zipfian::new(records, profile.theta);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| next_ycsb_txn(&profile, &zipf, records, &mut rng))
            .collect()
    }

    #[test]
    fn presets_cover_the_classic_mixes() {
        assert_eq!(YcsbProfile::a().rmw_fraction(), 0.0);
        assert!(YcsbProfile::b().read_fraction > 0.9);
        assert!((YcsbProfile::f().rmw_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn keys_are_distinct_within_a_transaction() {
        for txn in draw(YcsbProfile::a(), 200, 50, 7) {
            let mut indices: Vec<usize> = txn.ops.iter().map(YcsbOp::index).collect();
            let before = indices.len();
            indices.sort_unstable();
            indices.dedup();
            assert_eq!(indices.len(), before, "duplicate key in {txn:?}");
            assert_eq!(before, 4);
        }
    }

    #[test]
    fn tiny_populations_shorten_transactions_instead_of_repeating_keys() {
        for records in 1..8usize {
            for txn in draw(YcsbProfile::a(), records, 40, 5) {
                let mut indices: Vec<usize> = txn.ops.iter().map(YcsbOp::index).collect();
                indices.sort_unstable();
                indices.dedup();
                assert_eq!(indices.len(), records.min(4), "records={records}: {txn:?}");
                assert_eq!(txn.ops.len(), indices.len());
            }
        }
    }

    #[test]
    fn mix_fractions_are_respected_roughly() {
        let txns = draw(YcsbProfile::b(), 1_000, 250, 23);
        let (mut reads, mut writes) = (0usize, 0usize);
        for txn in &txns {
            for op in &txn.ops {
                match op {
                    YcsbOp::Read { .. } => reads += 1,
                    _ => writes += 1,
                }
            }
        }
        let total = (reads + writes) as f64;
        assert!(
            reads as f64 / total > 0.9,
            "YCSB-B must be read-dominated: {reads}/{total}"
        );
    }

    #[test]
    fn read_counts_follow_the_ops() {
        let txn = YcsbTxn {
            ops: vec![
                YcsbOp::Read { index: 0 },
                YcsbOp::Update { index: 1, value: 5 },
                YcsbOp::ReadModifyWrite { index: 2, delta: 1 },
            ],
        };
        assert_eq!(txn.read_count(), 2);
        assert_eq!(ycsb_genesis(3).len(), 3);
    }
}
