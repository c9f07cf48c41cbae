//! Key-granular static conflict analysis: instance-level safe classification.
//!
//! [`crate::templates`] classifies at **family** granularity — a template is Safe only when
//! no template in the mix writes any key-space *prefix* it touches. That is maximally coarse:
//! one writer poisons a whole family, so YCSB-B (95% reads) gets zero fast-path benefit even
//! though almost every one of its transactions provably conflicts with nothing. This module
//! refines the model to **key expressions over template parameters**, following Vandevoort et
//! al.'s template-robustness framework with functional constraints ("Robustness against Read
//! Committed for Transaction Templates with Functional Constraints"):
//!
//! * Every template's footprint is a set of [`KeyExpr`]s — `family:{p}` where `p` is a
//!   template parameter ranging over a [`ParamDomain`] (e.g. Smallbank `TransactSavings(c)`
//!   writes `savings/{c}` with `c ∈ [0, accounts)`; YCSB `Read(k)` reads `usertable/{k}`).
//! * Functional constraints are carried alongside: **intra-template key equalities** (two
//!   expressions sharing a [`KeyExpr::param`] slot denote the same concrete key in every
//!   instance — `DepositChecking(c)` reads and writes the *same* `checking/{c}`) and
//!   **parameter-domain disjointness** (Create-Account's monotone ids live in
//!   `[accounts, ∞)`, disjoint from every genesis row; a write-partitioned YCSB profile
//!   confines updates to the tail `[records − W, records)`).
//!
//! Two expressions *may unify* — admit a common concrete key under some instantiation — iff
//! they name the same family, their domains overlap, and they are not both fresh (fresh keys
//! are globally unique per instance). The [`ConflictAnalyzer`] computes a static
//! template×template [`ConflictMatrix`] from pairwise unification and then goes one level
//! further than PR 6: it classifies **instances**.
//!
//! # Instance classification rule
//!
//! A concrete arrival (a bound [`TxnTemplate`]) is [`TemplateClass::Safe`] iff
//!
//! 1. its template is Safe (the PR 6 family rule, unchanged), **or**
//! 2. the instance performs **no writes** and every concrete key it reads lies **outside the
//!    domain of every write expression in the mix**.
//!
//! Everything else stays [`TemplateClass::Unknown`] — conservative, never unsound.
//!
//! # Safety argument
//!
//! Rule 2 is the key-granular analogue of the family rule's read clause. Every edge kind the
//! orderer tracks (wr, ww, rw anti-dependencies and their committed/near variants) requires a
//! key shared between the instance's read or write set and another transaction's write or
//! read set. A rule-2 instance `t` writes nothing, so no edge can touch `t`'s (empty) write
//! set; and no possible instance of any template in the mix can ever write a key `t` reads —
//! the generator only materialises keys inside the declared write domains, which `t`'s read
//! keys provably miss. Hence no wr edge into `t` and no rw/anti-rw edge out of `t` can exist,
//! `t` can never lie on a dependency cycle, and removing it from the graph (the orderer's
//! template fast path) is invisible to every other transaction's verdict while its own verdict
//! is always "acyclic". The splice position (`merge_safe_into_order` in block formation) is
//! exact for the same reason: an edge-free node is ready at Kahn step 0.
//!
//! The payoff: with YCSB-B's writes confined to a tail partition
//! ([`YcsbProfile::with_write_partition`]), the Zipfian-favoured head is provably write-free
//! and ~3 out of 4 YCSB-B transactions (all-read instances whose sampled keys miss the tail)
//! ride the fast path — a mix that family analysis writes off entirely.

use crate::generator::{TxnTemplate, WorkloadKind};
use crate::smallbank::SmallbankOp;
use crate::templates::{
    self, KeyFamily, FAMILY_CHECKING, FAMILY_KV, FAMILY_SAVINGS, FAMILY_USERTABLE,
};
use crate::ycsb::YcsbTxn;
use eov_common::config::WorkloadParams;
use eov_common::txn::TemplateClass;

/// Half-open interval `[lo, hi)` of parameter values; `hi == None` means unbounded above
/// (the Create-Account pattern: monotone fresh ids from `accounts` upward).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParamDomain {
    /// Inclusive lower bound.
    pub lo: usize,
    /// Exclusive upper bound; `None` = unbounded.
    pub hi: Option<usize>,
}

impl ParamDomain {
    /// The bounded domain `[lo, hi)`.
    pub fn bounded(lo: usize, hi: usize) -> Self {
        ParamDomain { lo, hi: Some(hi) }
    }

    /// The unbounded domain `[lo, ∞)`.
    pub fn unbounded_from(lo: usize) -> Self {
        ParamDomain { lo, hi: None }
    }

    /// Whether the domain contains no values.
    pub fn is_empty(&self) -> bool {
        matches!(self.hi, Some(hi) if hi <= self.lo)
    }

    /// Whether `value` lies in the domain.
    pub fn contains(&self, value: usize) -> bool {
        value >= self.lo && self.hi.is_none_or(|hi| value < hi)
    }

    /// Whether the two domains share at least one value.
    pub fn overlaps(&self, other: &ParamDomain) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        let lo = self.lo.max(other.lo);
        match (self.hi, other.hi) {
            (Some(a), Some(b)) => lo < a.min(b),
            (Some(a), None) => lo < a,
            (None, Some(b)) => lo < b,
            (None, None) => true,
        }
    }
}

/// A symbolic key expression `family:{p}`: one operation target of a template, parameterised
/// by the template parameter in slot [`KeyExpr::param`] ranging over [`KeyExpr::domain`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyExpr {
    /// The key family (prefix) the expression instantiates into.
    pub family: KeyFamily,
    /// The values the parameter can take.
    pub domain: ParamDomain,
    /// Parameter slot within the template. Two expressions of the same template sharing a
    /// slot denote the **same concrete key component** in every instance (the intra-template
    /// key-equality constraint) — e.g. `DepositChecking(c)` reads and writes `checking/{c}`
    /// with one shared `c`.
    pub param: usize,
    /// Fresh expressions instantiate to brand-new, globally unique keys per instance (the
    /// Create-Account pattern): two fresh instantiations never collide, not even across two
    /// instances of the same template.
    pub fresh: bool,
}

impl KeyExpr {
    /// An expression over existing keys.
    pub fn over(family: KeyFamily, domain: ParamDomain, param: usize) -> Self {
        KeyExpr {
            family,
            domain,
            param,
            fresh: false,
        }
    }

    /// An expression over fresh (globally unique per instance) keys.
    pub fn fresh(family: KeyFamily, domain: ParamDomain, param: usize) -> Self {
        KeyExpr {
            family,
            domain,
            param,
            fresh: true,
        }
    }
}

/// Whether two expressions (from two *distinct* transaction instances) admit a common
/// concrete key under some parameter instantiation: same family, overlapping domains, and
/// not both fresh (fresh keys are unique per instance, so two fresh draws never collide).
pub fn may_unify(a: &KeyExpr, b: &KeyExpr) -> bool {
    a.family == b.family && a.domain.overlaps(&b.domain) && !(a.fresh && b.fresh)
}

/// The symbolic read/write footprint of one transaction template.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TemplateFootprint {
    /// Stable template name (matches [`templates::template_spec_name`]).
    pub name: &'static str,
    /// Key expressions the template reads.
    pub reads: Vec<KeyExpr>,
    /// Key expressions the template writes.
    pub writes: Vec<KeyExpr>,
}

impl TemplateFootprint {
    /// Whether the template writes anything.
    pub fn is_writer(&self) -> bool {
        !self.writes.is_empty()
    }
}

/// The symbolic footprints of a workload's template mix. Domains are derived from the same
/// parameters the generator draws from (`num_accounts`, hot-set size, YCSB write-partition
/// start), so the static model cannot drift from the concrete key streams.
pub fn symbolic_catalog(kind: &WorkloadKind, params: &WorkloadParams) -> Vec<TemplateFootprint> {
    let n = params.num_accounts;
    let genesis = ParamDomain::bounded(0, n);
    match kind {
        WorkloadKind::NoOp => vec![TemplateFootprint {
            name: "noop",
            reads: vec![],
            writes: vec![],
        }],
        WorkloadKind::KvUpdate { .. } => vec![TemplateFootprint {
            name: "kv-update",
            reads: vec![KeyExpr::over(FAMILY_KV, genesis, 0)],
            writes: vec![KeyExpr::over(FAMILY_KV, genesis, 0)],
        }],
        WorkloadKind::ModifiedSmallbank => {
            // `pick_accounts` draws from `[0, max(accounts, hot + 1))`.
            let total = n.max(params.num_hot_accounts().max(1) + 1);
            let domain = ParamDomain::bounded(0, total);
            vec![TemplateFootprint {
                name: "modified-rw",
                reads: (0..params.reads_per_txn)
                    .map(|slot| KeyExpr::over(FAMILY_CHECKING, domain, slot))
                    .collect(),
                writes: (0..params.writes_per_txn)
                    .map(|slot| KeyExpr::over(FAMILY_CHECKING, domain, params.reads_per_txn + slot))
                    .collect(),
            }]
        }
        WorkloadKind::MixedSmallbank { .. } => vec![
            TemplateFootprint {
                name: "query-account",
                reads: vec![
                    KeyExpr::over(FAMILY_CHECKING, genesis, 0),
                    KeyExpr::over(FAMILY_SAVINGS, genesis, 0),
                ],
                writes: vec![],
            },
            TemplateFootprint {
                name: "deposit-checking",
                reads: vec![KeyExpr::over(FAMILY_CHECKING, genesis, 0)],
                writes: vec![KeyExpr::over(FAMILY_CHECKING, genesis, 0)],
            },
            TemplateFootprint {
                name: "write-check",
                reads: vec![KeyExpr::over(FAMILY_CHECKING, genesis, 0)],
                writes: vec![KeyExpr::over(FAMILY_CHECKING, genesis, 0)],
            },
            TemplateFootprint {
                name: "transact-savings",
                reads: vec![KeyExpr::over(FAMILY_SAVINGS, genesis, 0)],
                writes: vec![KeyExpr::over(FAMILY_SAVINGS, genesis, 0)],
            },
            TemplateFootprint {
                name: "send-payment",
                reads: vec![
                    KeyExpr::over(FAMILY_CHECKING, genesis, 0),
                    KeyExpr::over(FAMILY_CHECKING, genesis, 1),
                ],
                writes: vec![
                    KeyExpr::over(FAMILY_CHECKING, genesis, 0),
                    KeyExpr::over(FAMILY_CHECKING, genesis, 1),
                ],
            },
            TemplateFootprint {
                name: "amalgamate",
                reads: vec![
                    KeyExpr::over(FAMILY_SAVINGS, genesis, 0),
                    KeyExpr::over(FAMILY_CHECKING, genesis, 0),
                    KeyExpr::over(FAMILY_CHECKING, genesis, 1),
                ],
                writes: vec![
                    KeyExpr::over(FAMILY_SAVINGS, genesis, 0),
                    KeyExpr::over(FAMILY_CHECKING, genesis, 0),
                    KeyExpr::over(FAMILY_CHECKING, genesis, 1),
                ],
            },
        ],
        WorkloadKind::CreateAccount => {
            // One monotone account id feeds both written keys: an intra-template equality
            // over a fresh domain disjoint from every genesis row.
            let fresh = ParamDomain::unbounded_from(n);
            vec![TemplateFootprint {
                name: "create-account",
                reads: vec![],
                writes: vec![
                    KeyExpr::fresh(FAMILY_CHECKING, fresh, 0),
                    KeyExpr::fresh(FAMILY_SAVINGS, fresh, 0),
                ],
            }]
        }
        WorkloadKind::Ycsb(profile) => {
            let reads_any = profile.read_fraction > 0.0 || profile.rmw_fraction() > 0.0;
            let writes_any = profile.update_fraction > 0.0 || profile.rmw_fraction() > 0.0;
            // The write domain starts where the profile's write partition starts — derived
            // from the very function the generator samples with, so the symbolic model and
            // the concrete key stream agree by construction.
            let write_domain = ParamDomain::bounded(profile.write_partition_start(n), n);
            vec![TemplateFootprint {
                name: "ycsb",
                reads: if reads_any {
                    vec![KeyExpr::over(FAMILY_USERTABLE, genesis, 0)]
                } else {
                    vec![]
                },
                writes: if writes_any {
                    vec![KeyExpr::over(FAMILY_USERTABLE, write_domain, 1)]
                } else {
                    vec![]
                },
            }]
        }
    }
}

/// The static template×template conflict matrix of a mix: `conflicts[i][j]` is `true` iff
/// some instantiation of templates `i` and `j` admits a dependency edge (a read/write or
/// write/write expression pair that unifies). Consumed by the `conflict_matrix` bench bin
/// and exported through the simulator's `SimReport::conflict_matrix`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConflictMatrix {
    /// Template names, indexing the matrix rows/columns.
    pub templates: Vec<&'static str>,
    /// Template-level class of each template in the mix.
    pub classes: Vec<TemplateClass>,
    /// Pairwise may-conflict verdicts.
    pub conflicts: Vec<Vec<bool>>,
}

impl ConflictMatrix {
    /// The matrix entry for two templates by name.
    pub fn conflicts_between(&self, a: &str, b: &str) -> Option<bool> {
        let i = self.templates.iter().position(|t| *t == a)?;
        let j = self.templates.iter().position(|t| *t == b)?;
        Some(self.conflicts[i][j])
    }

    /// The template-level class of a template by name.
    pub fn class_of(&self, name: &str) -> Option<TemplateClass> {
        let i = self.templates.iter().position(|t| *t == name)?;
        Some(self.classes[i])
    }

    /// Whether the mix has no conflicting template pair at all.
    pub fn is_conflict_free(&self) -> bool {
        self.conflicts.iter().flatten().all(|c| !c)
    }
}

/// Key-granular conflict analyzer for one workload mix: template-level verdicts from
/// expression unification plus the instance-level refinement (module-level rule 2).
#[derive(Clone, Debug)]
pub struct ConflictAnalyzer {
    mix: Vec<TemplateFootprint>,
    classes: Vec<TemplateClass>,
    matrix: ConflictMatrix,
}

impl ConflictAnalyzer {
    /// Builds the analyzer for a workload: symbolic catalog, per-template classes and the
    /// conflict matrix.
    pub fn new(kind: &WorkloadKind, params: &WorkloadParams) -> Self {
        let mix = symbolic_catalog(kind, params);
        let classes = classify_footprints(&mix);
        let conflicts: Vec<Vec<bool>> = mix
            .iter()
            .map(|a| mix.iter().map(|b| footprints_conflict(a, b)).collect())
            .collect();
        let matrix = ConflictMatrix {
            templates: mix.iter().map(|fp| fp.name).collect(),
            classes: classes.clone(),
            conflicts,
        };
        ConflictAnalyzer {
            mix,
            classes,
            matrix,
        }
    }

    /// The static conflict matrix of the mix.
    pub fn matrix(&self) -> &ConflictMatrix {
        &self.matrix
    }

    /// The symbolic footprints of the mix.
    pub fn footprints(&self) -> &[TemplateFootprint] {
        &self.mix
    }

    /// Template-level class of a generated template (expression-granular analogue of
    /// [`templates::TemplateClassifier::classify_template`]; agrees with it on every shipped
    /// catalog). Templates outside the mix are conservatively [`TemplateClass::Unknown`].
    pub fn classify_template(&self, template: &TxnTemplate) -> TemplateClass {
        let name = templates::template_spec_name(template);
        self.mix
            .iter()
            .position(|fp| fp.name == name)
            .map(|i| self.classes[i])
            .unwrap_or(TemplateClass::Unknown)
    }

    /// The conflict-matrix row index of a generated template, or `None` for templates outside
    /// the mix. Stamped onto `Transaction::template_id`, which the ledger codec persists.
    pub fn template_index(&self, template: &TxnTemplate) -> Option<u16> {
        let name = templates::template_spec_name(template);
        self.mix
            .iter()
            .position(|fp| fp.name == name)
            .and_then(|i| u16::try_from(i).ok())
    }

    /// **Instance**-level class of a concrete arrival: template-Safe instances stay Safe, and
    /// a write-free instance is additionally Safe when every key it reads provably misses
    /// every write expression in the mix (module-level rule 2). Conservative otherwise.
    pub fn classify_instance(&self, template: &TxnTemplate) -> TemplateClass {
        if self.classify_template(template).is_safe() {
            return TemplateClass::Safe;
        }
        let accesses = instance_accesses(template);
        if accesses.iter().any(|access| access.write) {
            return TemplateClass::Unknown;
        }
        let clean = accesses
            .iter()
            .all(|access| !self.writes_may_cover(access.family, access.index));
        if clean {
            TemplateClass::Safe
        } else {
            TemplateClass::Unknown
        }
    }

    /// Whether any template in the mix can produce Safe instances at all (template-Safe, or
    /// a reader whose concrete keys can escape every write domain).
    pub fn any_safe_possible(&self) -> bool {
        self.classes.iter().any(TemplateClass::is_safe)
            || self.mix.iter().any(|fp| {
                !fp.is_writer()
                    && fp.reads.iter().all(|r| {
                        self.mix
                            .iter()
                            .all(|o| o.writes.iter().all(|w| !may_unify(r, w)))
                    })
            })
            || self.instance_rescue_possible()
    }

    /// Whether rule 2 can ever fire: some template draws read keys from a domain not fully
    /// covered by the mix's write expressions.
    fn instance_rescue_possible(&self) -> bool {
        self.mix.iter().any(|fp| {
            fp.reads.iter().any(|r| {
                // A read expression escapes when its domain holds a value outside every
                // same-family write domain. Checking the domain's lower bound is exact for
                // the shipped catalogs (write domains are tail- or fresh-anchored).
                !r.domain.is_empty() && !self.writes_may_cover(r.family, r.domain.lo)
            })
        })
    }

    /// Whether some write expression in the mix can instantiate to `family:{index}`.
    fn writes_may_cover(&self, family: KeyFamily, index: usize) -> bool {
        self.mix.iter().any(|fp| {
            fp.writes
                .iter()
                .any(|w| w.family == family && w.domain.contains(index))
        })
    }
}

/// Template-level classification over symbolic footprints — the expression-granular analogue
/// of [`templates::classify`]: template `i` is Safe iff no write expression in the mix
/// unifies with any of its reads, and it writes nothing (or only fresh expressions no other
/// template's expression unifies with).
fn classify_footprints(mix: &[TemplateFootprint]) -> Vec<TemplateClass> {
    mix.iter()
        .enumerate()
        .map(|(i, fp)| {
            let reads_clean = fp.reads.iter().all(|r| {
                mix.iter()
                    .all(|other| other.writes.iter().all(|w| !may_unify(r, w)))
            });
            let writes_clean = fp.writes.is_empty()
                || fp.writes.iter().all(|w| {
                    w.fresh
                        && mix.iter().enumerate().all(|(j, other)| {
                            j == i
                                || other
                                    .reads
                                    .iter()
                                    .chain(other.writes.iter())
                                    .all(|e| !may_unify(w, e))
                        })
                });
            if reads_clean && writes_clean {
                TemplateClass::Safe
            } else {
                TemplateClass::Unknown
            }
        })
        .collect()
}

/// Whether two templates admit any dependency edge between some pair of their instances.
fn footprints_conflict(a: &TemplateFootprint, b: &TemplateFootprint) -> bool {
    let rw = |x: &TemplateFootprint, y: &TemplateFootprint| {
        x.reads
            .iter()
            .any(|r| y.writes.iter().any(|w| may_unify(r, w)))
    };
    let ww = a
        .writes
        .iter()
        .any(|wa| b.writes.iter().any(|wb| may_unify(wa, wb)));
    rw(a, b) || rw(b, a) || ww
}

/// One concrete key access of a bound template instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstanceAccess {
    /// The key family accessed.
    pub family: KeyFamily,
    /// The concrete parameter value (`family:{index}`).
    pub index: usize,
    /// Whether the access writes (else it reads).
    pub write: bool,
}

impl InstanceAccess {
    fn read(family: KeyFamily, index: usize) -> Self {
        InstanceAccess {
            family,
            index,
            write: false,
        }
    }

    fn write(family: KeyFamily, index: usize) -> Self {
        InstanceAccess {
            family,
            index,
            write: true,
        }
    }
}

/// The concrete key footprint of a bound template instance, mirroring exactly what the
/// contract bodies read and write (`crate::contracts`, `crate::smallbank`, `crate::ycsb`).
/// The match is exhaustive: a new template variant fails compilation here rather than
/// silently classifying unsoundly.
pub fn instance_accesses(template: &TxnTemplate) -> Vec<InstanceAccess> {
    match template {
        TxnTemplate::NoOp => vec![],
        TxnTemplate::KvUpdate { key_index } => vec![
            InstanceAccess::read(FAMILY_KV, *key_index),
            InstanceAccess::write(FAMILY_KV, *key_index),
        ],
        TxnTemplate::Smallbank(op) => match op {
            SmallbankOp::CreateAccount { account, .. } => vec![
                InstanceAccess::write(FAMILY_CHECKING, *account),
                InstanceAccess::write(FAMILY_SAVINGS, *account),
            ],
            SmallbankOp::QueryAccount { account } => vec![
                InstanceAccess::read(FAMILY_CHECKING, *account),
                InstanceAccess::read(FAMILY_SAVINGS, *account),
            ],
            SmallbankOp::DepositChecking { account, .. }
            | SmallbankOp::WriteCheck { account, .. } => vec![
                InstanceAccess::read(FAMILY_CHECKING, *account),
                InstanceAccess::write(FAMILY_CHECKING, *account),
            ],
            SmallbankOp::TransactSavings { account, .. } => vec![
                InstanceAccess::read(FAMILY_SAVINGS, *account),
                InstanceAccess::write(FAMILY_SAVINGS, *account),
            ],
            SmallbankOp::SendPayment { from, to, .. } => vec![
                InstanceAccess::read(FAMILY_CHECKING, *from),
                InstanceAccess::read(FAMILY_CHECKING, *to),
                InstanceAccess::write(FAMILY_CHECKING, *from),
                InstanceAccess::write(FAMILY_CHECKING, *to),
            ],
            SmallbankOp::Amalgamate { from, to } => vec![
                InstanceAccess::read(FAMILY_SAVINGS, *from),
                InstanceAccess::read(FAMILY_CHECKING, *from),
                InstanceAccess::read(FAMILY_CHECKING, *to),
                InstanceAccess::write(FAMILY_SAVINGS, *from),
                InstanceAccess::write(FAMILY_CHECKING, *from),
                InstanceAccess::write(FAMILY_CHECKING, *to),
            ],
            SmallbankOp::ModifiedRw { reads, writes } => reads
                .iter()
                .map(|a| InstanceAccess::read(FAMILY_CHECKING, *a))
                .chain(
                    writes
                        .iter()
                        .map(|a| InstanceAccess::write(FAMILY_CHECKING, *a)),
                )
                .collect(),
        },
        TxnTemplate::Ycsb(YcsbTxn { ops }) => ops
            .iter()
            .flat_map(|op| {
                use crate::ycsb::YcsbOp;
                match op {
                    YcsbOp::Read { index } => vec![InstanceAccess::read(FAMILY_USERTABLE, *index)],
                    YcsbOp::Update { index, .. } => {
                        vec![InstanceAccess::write(FAMILY_USERTABLE, *index)]
                    }
                    YcsbOp::ReadModifyWrite { index, .. } => vec![
                        InstanceAccess::read(FAMILY_USERTABLE, *index),
                        InstanceAccess::write(FAMILY_USERTABLE, *index),
                    ],
                }
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WorkloadGenerator;
    use crate::templates::TemplateClassifier;
    use crate::ycsb::{YcsbOp, YcsbProfile};
    use TemplateClass::{Safe, Unknown};

    fn params(accounts: usize) -> WorkloadParams {
        WorkloadParams {
            num_accounts: accounts,
            ..WorkloadParams::default()
        }
    }

    fn all_kinds() -> Vec<WorkloadKind> {
        vec![
            WorkloadKind::NoOp,
            WorkloadKind::KvUpdate { theta: 0.5 },
            WorkloadKind::ModifiedSmallbank,
            WorkloadKind::MixedSmallbank { theta: 0.7 },
            WorkloadKind::CreateAccount,
            WorkloadKind::Ycsb(YcsbProfile::a()),
            WorkloadKind::Ycsb(YcsbProfile::b()),
            WorkloadKind::Ycsb(YcsbProfile::c()),
            WorkloadKind::Ycsb(YcsbProfile::f()),
            WorkloadKind::Ycsb(YcsbProfile::b().with_write_partition(0.125)),
        ]
    }

    #[test]
    fn domains_overlap_and_contain() {
        let a = ParamDomain::bounded(0, 10);
        let b = ParamDomain::bounded(10, 20);
        let c = ParamDomain::unbounded_from(5);
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&c));
        assert!(b.overlaps(&c));
        assert!(c.overlaps(&c));
        assert!(a.contains(9) && !a.contains(10));
        assert!(c.contains(1_000_000) && !c.contains(4));
        assert!(ParamDomain::bounded(3, 3).is_empty());
        assert!(!ParamDomain::bounded(3, 3).overlaps(&c));
    }

    #[test]
    fn unification_respects_family_domain_and_freshness() {
        let genesis_read = KeyExpr::over(FAMILY_CHECKING, ParamDomain::bounded(0, 100), 0);
        let genesis_write = KeyExpr::over(FAMILY_CHECKING, ParamDomain::bounded(0, 100), 1);
        let other_family = KeyExpr::over(FAMILY_SAVINGS, ParamDomain::bounded(0, 100), 0);
        let fresh_a = KeyExpr::fresh(FAMILY_CHECKING, ParamDomain::unbounded_from(100), 0);
        let fresh_b = KeyExpr::fresh(FAMILY_CHECKING, ParamDomain::unbounded_from(100), 0);
        assert!(may_unify(&genesis_read, &genesis_write));
        assert!(!may_unify(&genesis_read, &other_family));
        // Fresh keys live above the genesis population: domain disjointness rules them out.
        assert!(!may_unify(&genesis_read, &fresh_a));
        // And two fresh draws never collide even on the same family + domain.
        assert!(!may_unify(&fresh_a, &fresh_b));
        // A non-fresh write over the fresh domain would collide with fresh keys.
        let blind = KeyExpr::over(FAMILY_CHECKING, ParamDomain::unbounded_from(50), 2);
        assert!(may_unify(&fresh_a, &blind));
    }

    /// The expression-granular template verdicts agree with the family-granular
    /// [`TemplateClassifier`] on every shipped catalog — key granularity refines, it never
    /// contradicts.
    #[test]
    fn template_verdicts_agree_with_family_classifier() {
        for kind in all_kinds() {
            let analyzer = ConflictAnalyzer::new(&kind, &params(400));
            let family = TemplateClassifier::new(&kind);
            let mut generator = WorkloadGenerator::new(kind.clone(), params(400), 17);
            for _ in 0..60 {
                let template = generator.next_template();
                assert_eq!(
                    analyzer.classify_template(&template),
                    family.classify_template(&template),
                    "{kind:?}: template verdict diverged for {template:?}"
                );
            }
        }
    }

    /// Instance classification refines the template verdict monotonically: template-Safe
    /// implies instance-Safe, and instance-Safe instances are write-free unless their
    /// template is Safe.
    #[test]
    fn instance_refines_template_monotonically() {
        for kind in all_kinds() {
            let analyzer = ConflictAnalyzer::new(&kind, &params(400));
            let mut generator = WorkloadGenerator::new(kind.clone(), params(400), 23);
            for _ in 0..120 {
                let template = generator.next_template();
                let t = analyzer.classify_template(&template);
                let i = analyzer.classify_instance(&template);
                if t.is_safe() {
                    assert!(
                        i.is_safe(),
                        "{kind:?}: template-Safe demoted at instance level"
                    );
                }
                if i.is_safe() && !t.is_safe() {
                    assert!(
                        instance_accesses(&template).iter().all(|a| !a.write),
                        "{kind:?}: rescued instance has writes: {template:?}"
                    );
                }
            }
        }
    }

    /// The soundness envelope of rule 2: every rescued instance's read keys miss every write
    /// expression domain in the mix.
    #[test]
    fn rescued_instances_provably_miss_all_write_domains() {
        let kind = WorkloadKind::Ycsb(YcsbProfile::b().with_write_partition(0.125));
        let p = params(2_000);
        let analyzer = ConflictAnalyzer::new(&kind, &p);
        let start = YcsbProfile::b()
            .with_write_partition(0.125)
            .write_partition_start(2_000);
        let mut generator = WorkloadGenerator::new(kind, p, 7);
        let mut rescued = 0usize;
        for _ in 0..500 {
            let template = generator.next_template();
            if analyzer.classify_instance(&template).is_safe() {
                rescued += 1;
                for access in instance_accesses(&template) {
                    assert!(!access.write);
                    assert!(
                        access.index < start,
                        "rescued read landed in the write partition: {access:?}"
                    );
                }
            }
        }
        // The design point: a solid majority of YCSB-B instances get rescued (analytically
        // ≈ 0.95⁴ × P(4 Zipfian reads miss the tail) ≈ 75%).
        assert!(
            rescued > 300,
            "expected most YCSB-B instances rescued, got {rescued}/500"
        );
    }

    /// Without the write partition, plain YCSB-B instances stay Unknown (any read may hit
    /// the whole-population write domain) — the PR 6 status quo is preserved exactly.
    #[test]
    fn unpartitioned_ycsb_b_is_not_rescued() {
        let kind = WorkloadKind::Ycsb(YcsbProfile::b());
        let p = params(2_000);
        let analyzer = ConflictAnalyzer::new(&kind, &p);
        assert!(!analyzer.any_safe_possible());
        let mut generator = WorkloadGenerator::new(kind, p, 7);
        for _ in 0..200 {
            let template = generator.next_template();
            assert_eq!(analyzer.classify_instance(&template), Unknown);
        }
    }

    #[test]
    fn conflict_matrix_is_symmetric_and_pins_the_mixes() {
        let analyzer =
            ConflictAnalyzer::new(&WorkloadKind::MixedSmallbank { theta: 0.7 }, &params(100));
        let m = analyzer.matrix();
        assert_eq!(m.templates.len(), 6);
        for i in 0..m.templates.len() {
            for j in 0..m.templates.len() {
                assert_eq!(
                    m.conflicts[i][j], m.conflicts[j][i],
                    "matrix must be symmetric"
                );
            }
        }
        // Checking-vs-savings disjointness shows up at key granularity: transact-savings
        // cannot conflict with the checking-only updates…
        assert_eq!(
            m.conflicts_between("transact-savings", "deposit-checking"),
            Some(false)
        );
        assert_eq!(
            m.conflicts_between("transact-savings", "send-payment"),
            Some(false)
        );
        // …but does with amalgamate (shared savings rows) and itself.
        assert_eq!(
            m.conflicts_between("transact-savings", "amalgamate"),
            Some(true)
        );
        assert_eq!(
            m.conflicts_between("transact-savings", "transact-savings"),
            Some(true)
        );
        assert_eq!(m.class_of("query-account"), Some(Unknown));

        // YCSB-C: one template, zero conflicts, Safe.
        let c = ConflictAnalyzer::new(&WorkloadKind::Ycsb(YcsbProfile::c()), &params(100));
        assert!(c.matrix().is_conflict_free());
        assert_eq!(c.matrix().class_of("ycsb"), Some(Safe));
        assert!(c.any_safe_possible());

        // Create-Account: fresh writes make the self-pair conflict-free.
        let ca = ConflictAnalyzer::new(&WorkloadKind::CreateAccount, &params(100));
        assert!(ca.matrix().is_conflict_free());
        assert_eq!(ca.matrix().class_of("create-account"), Some(Safe));
    }

    #[test]
    fn intra_template_equalities_are_recorded() {
        let mix = symbolic_catalog(&WorkloadKind::MixedSmallbank { theta: 0.7 }, &params(50));
        let deposit = mix.iter().find(|fp| fp.name == "deposit-checking").unwrap();
        // DepositChecking(c) reads and writes the same checking/{c}: one shared param slot.
        assert_eq!(deposit.reads[0].param, deposit.writes[0].param);
        let payment = mix.iter().find(|fp| fp.name == "send-payment").unwrap();
        // SendPayment(from, to): two distinct slots, each read and written.
        assert_ne!(payment.reads[0].param, payment.reads[1].param);
        assert_eq!(payment.reads[0].param, payment.writes[0].param);
        let create = symbolic_catalog(&WorkloadKind::CreateAccount, &params(50));
        // CreateAccount(id): one id feeds both fresh keys, domain [accounts, ∞).
        assert_eq!(create[0].writes[0].param, create[0].writes[1].param);
        assert_eq!(create[0].writes[0].domain, ParamDomain::unbounded_from(50));
    }

    #[test]
    fn instance_footprints_match_the_contract_bodies() {
        let amalgamate = TxnTemplate::Smallbank(SmallbankOp::Amalgamate { from: 3, to: 9 });
        let accesses = instance_accesses(&amalgamate);
        assert_eq!(accesses.iter().filter(|a| !a.write).count(), 3);
        assert_eq!(accesses.iter().filter(|a| a.write).count(), 3);
        assert!(accesses.contains(&InstanceAccess::read(FAMILY_SAVINGS, 3)));
        assert!(accesses.contains(&InstanceAccess::write(FAMILY_CHECKING, 9)));

        let rmw = TxnTemplate::Ycsb(YcsbTxn {
            ops: vec![
                YcsbOp::Read { index: 1 },
                YcsbOp::ReadModifyWrite { index: 2, delta: 1 },
            ],
        });
        let accesses = instance_accesses(&rmw);
        assert_eq!(accesses.len(), 3);
        assert!(accesses.contains(&InstanceAccess::write(FAMILY_USERTABLE, 2)));

        assert!(instance_accesses(&TxnTemplate::NoOp).is_empty());
    }

    /// A write-partitioned mix flips exactly the right instances: all-read transactions
    /// below the partition are Safe, anything touching the tail or writing is Unknown.
    #[test]
    fn partitioned_instance_rule_is_exact() {
        let profile = YcsbProfile::b().with_write_partition(0.25);
        let p = params(100);
        let start = profile.write_partition_start(100);
        assert_eq!(start, 75);
        let analyzer = ConflictAnalyzer::new(&WorkloadKind::Ycsb(profile), &p);
        assert!(analyzer.any_safe_possible());

        let safe_reads = TxnTemplate::Ycsb(YcsbTxn {
            ops: vec![YcsbOp::Read { index: 0 }, YcsbOp::Read { index: 74 }],
        });
        assert_eq!(analyzer.classify_instance(&safe_reads), Safe);

        let tail_read = TxnTemplate::Ycsb(YcsbTxn {
            ops: vec![YcsbOp::Read { index: 0 }, YcsbOp::Read { index: 75 }],
        });
        assert_eq!(analyzer.classify_instance(&tail_read), Unknown);

        let writer = TxnTemplate::Ycsb(YcsbTxn {
            ops: vec![YcsbOp::Update {
                index: 80,
                value: 1,
            }],
        });
        assert_eq!(analyzer.classify_instance(&writer), Unknown);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::generator::WorkloadGenerator;
    use crate::ycsb::YcsbProfile;
    use proptest::prelude::*;

    proptest! {
        /// Domain overlap is symmetric and consistent with membership: a shared element
        /// implies overlap, and overlap of bounded domains implies a shared element.
        #[test]
        fn domain_overlap_is_consistent(
            lo_a in 0usize..50, len_a in 0usize..50,
            lo_b in 0usize..50, len_b in 0usize..50,
            probe in 0usize..120,
        ) {
            let a = ParamDomain::bounded(lo_a, lo_a + len_a);
            let b = ParamDomain::bounded(lo_b, lo_b + len_b);
            prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
            if a.contains(probe) && b.contains(probe) {
                prop_assert!(a.overlaps(&b));
            }
            if a.overlaps(&b) {
                let witness = lo_a.max(lo_b);
                prop_assert!(a.contains(witness) && b.contains(witness));
            }
        }

        /// Rule-2 soundness over the real generator: for any write-partition fraction and
        /// population, every instance the analyzer marks Safe is write-free and reads only
        /// keys strictly below the partition start — i.e. keys no generator-produced write
        /// can ever touch.
        #[test]
        fn safe_instances_never_intersect_generated_writes(
            records in 8usize..600,
            fraction in 0.01f64..1.0,
            read_fraction in 0.0f64..1.0,
            seed in 0u64..1_000,
        ) {
            let profile = YcsbProfile {
                read_fraction,
                update_fraction: 1.0 - read_fraction,
                ..YcsbProfile::a()
            }
            .with_write_partition(fraction);
            let p = WorkloadParams { num_accounts: records, ..WorkloadParams::default() };
            let kind = WorkloadKind::Ycsb(profile);
            let analyzer = ConflictAnalyzer::new(&kind, &p);
            let start = profile.write_partition_start(records);
            let mut generator = WorkloadGenerator::new(kind, p, seed);
            for _ in 0..40 {
                let template = generator.next_template();
                let accesses = instance_accesses(&template);
                // Generator invariant the analyzer's domains encode: writes stay in the tail.
                for access in accesses.iter().filter(|a| a.write) {
                    prop_assert!(access.index >= start, "write escaped partition");
                }
                if analyzer.classify_instance(&template).is_safe() {
                    // update_fraction > 0 throughout, so no template is Safe: every Safe
                    // verdict here is a rule-2 rescue and must be a clean miss of the tail.
                    for access in &accesses {
                        prop_assert!(!access.write, "Safe instance wrote");
                        prop_assert!(
                            access.index < start,
                            "Safe instance read inside the write partition"
                        );
                    }
                }
            }
        }
    }
}
