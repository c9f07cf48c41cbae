//! Template-robustness static analysis.
//!
//! Vandevoort et al. ("Robustness against Read Committed for Transaction Templates", VLDB'21)
//! show that serializability violations under weak protocols can be ruled out *statically*,
//! by conflict-graph reasoning over transaction **templates** — the read/write key-set shapes
//! a workload draws from — rather than over individual transactions. This module applies the
//! same idea to FabricSharp's orderer-side reordering: a template is classified
//! [`TemplateClass::Safe`] when no instance of it can ever sit on a dependency cycle given the
//! whole template mix, and the orderer skips graph insertion and cycle probing for those
//! transactions entirely (the template fast path; always on, debug builds re-check the claim
//! on every arrival and replay).
//!
//! # Classification rule
//!
//! Templates are abstracted to *key families* — the key-space prefixes a workload touches
//! (`checking:`, `savings:`, `usertable:`, `kv:`). Template `i` in mix `M` is **safe** iff
//!
//! 1. no template in `M` (including `i` itself) writes any family `i` reads, and
//! 2. `i` writes nothing, or every write of `i` targets *fresh* keys (brand-new, globally
//!    unique per instance, e.g. Create-Account's monotone account ids) in families no *other*
//!    template in `M` reads or writes.
//!
//! Everything else is [`TemplateClass::Unknown`] and takes the fully tracked path.
//!
//! # Safety argument
//!
//! A dependency cycle through an instance `t` needs at least one edge *into* `t` and one
//! *out of* `t`. Every edge kind the orderer tracks (wr, ww, rw anti-dependencies, and their
//! committed/near variants) requires a key shared between `t`'s read or write set and the
//! other transaction's write or read set:
//!
//! * Rule 1 kills every edge incident to `t`'s reads: nobody writes those families, so no
//!   wr edge into `t` and no rw/anti-rw edge out of `t` can exist.
//! * Rule 2 kills every edge incident to `t`'s writes: either there are none, or the written
//!   keys are fresh — no earlier transaction wrote them (no ww into `t`) and no concurrent
//!   template instance reads or writes them (no wr/ww out of `t`, no rw into `t`; two
//!   instances of `i` write disjoint fresh keys by construction).
//!
//! With no in-edge or no out-edge possible, `t` cannot lie on any cycle — so dropping it from
//! the dependency graph cannot change any other transaction's cycle verdict, and its own
//! verdict is always "acyclic". The rule is deliberately conservative: read-only templates are
//! *not* safe when any template in the mix writes their families (a pending writer with a
//! stale snapshot can pick up a near-wr predecessor plus an anti-rw successor through such a
//! reader, closing a cycle through it), which is why YCSB-B's 95%-read traffic still takes
//! the slow path while YCSB-C qualifies wholesale.

use crate::generator::{TxnTemplate, WorkloadKind};
use crate::ycsb::YcsbProfile;
use eov_common::txn::TemplateClass;

/// A key family: the key-space prefix a template's operations target.
pub(crate) type KeyFamily = &'static str;

/// The `kv:` family (the Figure 1 single-key-update workload).
pub(crate) const FAMILY_KV: KeyFamily = "kv";
/// The `checking:` family (Smallbank checking balances).
pub(crate) const FAMILY_CHECKING: KeyFamily = "checking";
/// The `savings:` family (Smallbank savings balances).
pub(crate) const FAMILY_SAVINGS: KeyFamily = "savings";
/// The `usertable:` family (YCSB records).
pub(crate) const FAMILY_USERTABLE: KeyFamily = "usertable";

/// The read/write key-set shape of one transaction template.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct TemplateSpec {
    /// Stable template name (used to map generated templates back to their spec).
    pub(crate) name: &'static str,
    /// Families the template reads.
    pub(crate) reads: Vec<KeyFamily>,
    /// Families the template writes.
    pub(crate) writes: Vec<KeyFamily>,
    /// Whether every written key is brand-new and globally unique per instance (the
    /// Create-Account pattern). Only fresh writers can be safe despite writing.
    pub(crate) fresh_writes: bool,
}

impl TemplateSpec {
    /// A template that only reads.
    pub(crate) fn read_only(name: &'static str, reads: impl Into<Vec<KeyFamily>>) -> Self {
        TemplateSpec {
            name,
            reads: reads.into(),
            writes: Vec::new(),
            fresh_writes: false,
        }
    }

    /// A template that reads and writes existing keys.
    pub(crate) fn read_write(
        name: &'static str,
        reads: impl Into<Vec<KeyFamily>>,
        writes: impl Into<Vec<KeyFamily>>,
    ) -> Self {
        TemplateSpec {
            name,
            reads: reads.into(),
            writes: writes.into(),
            fresh_writes: false,
        }
    }

    /// A write-only template whose keys are fresh per instance.
    pub(crate) fn fresh_writer(name: &'static str, writes: impl Into<Vec<KeyFamily>>) -> Self {
        TemplateSpec {
            name,
            reads: Vec::new(),
            writes: writes.into(),
            fresh_writes: true,
        }
    }
}

/// Classifies every template in `mix` per the module-level rule. The verdicts are
/// mix-relative: the same template can be safe in one mix and unknown in another.
pub(crate) fn classify(mix: &[TemplateSpec]) -> Vec<TemplateClass> {
    mix.iter()
        .enumerate()
        .map(|(i, spec)| {
            let reads_clean = spec
                .reads
                .iter()
                .all(|family| mix.iter().all(|other| !other.writes.contains(family)));
            let writes_clean = spec.writes.is_empty()
                || (spec.fresh_writes
                    && spec.writes.iter().all(|family| {
                        mix.iter().enumerate().all(|(j, other)| {
                            j == i
                                || (!other.reads.contains(family) && !other.writes.contains(family))
                        })
                    }));
            if reads_clean && writes_clean {
                TemplateClass::Safe
            } else {
                TemplateClass::Unknown
            }
        })
        .collect()
}

/// The template mix a [`WorkloadKind`] draws from, as key-family shapes.
pub(crate) fn catalog(kind: &WorkloadKind) -> Vec<TemplateSpec> {
    match kind {
        WorkloadKind::NoOp => vec![TemplateSpec::read_only("noop", [])],
        WorkloadKind::KvUpdate { .. } => vec![TemplateSpec::read_write(
            "kv-update",
            [FAMILY_KV],
            [FAMILY_KV],
        )],
        WorkloadKind::ModifiedSmallbank => vec![TemplateSpec::read_write(
            "modified-rw",
            [FAMILY_CHECKING],
            [FAMILY_CHECKING],
        )],
        WorkloadKind::MixedSmallbank { .. } => vec![
            TemplateSpec::read_only("query-account", [FAMILY_CHECKING, FAMILY_SAVINGS]),
            TemplateSpec::read_write("deposit-checking", [FAMILY_CHECKING], [FAMILY_CHECKING]),
            TemplateSpec::read_write("write-check", [FAMILY_CHECKING], [FAMILY_CHECKING]),
            TemplateSpec::read_write("transact-savings", [FAMILY_SAVINGS], [FAMILY_SAVINGS]),
            TemplateSpec::read_write("send-payment", [FAMILY_CHECKING], [FAMILY_CHECKING]),
            TemplateSpec::read_write(
                "amalgamate",
                [FAMILY_CHECKING, FAMILY_SAVINGS],
                [FAMILY_CHECKING, FAMILY_SAVINGS],
            ),
        ],
        WorkloadKind::CreateAccount => vec![TemplateSpec::fresh_writer(
            "create-account",
            [FAMILY_CHECKING, FAMILY_SAVINGS],
        )],
        WorkloadKind::Ycsb(profile) => vec![ycsb_spec(profile)],
    }
}

/// The composite YCSB template: one shape covering the whole op mix of a profile (each
/// transaction may combine reads, updates and RMWs, so the template reads `usertable:` when
/// any op kind reads and writes it when any op kind writes).
fn ycsb_spec(profile: &YcsbProfile) -> TemplateSpec {
    let reads = profile.read_fraction > 0.0 || profile.rmw_fraction() > 0.0;
    let writes = profile.update_fraction > 0.0 || profile.rmw_fraction() > 0.0;
    TemplateSpec {
        name: "ycsb",
        reads: if reads {
            vec![FAMILY_USERTABLE]
        } else {
            vec![]
        },
        writes: if writes {
            vec![FAMILY_USERTABLE]
        } else {
            vec![]
        },
        fresh_writes: false,
    }
}

/// The stable spec name of a generated template (see [`catalog`]).
pub(crate) fn template_spec_name(template: &TxnTemplate) -> &'static str {
    use crate::smallbank::SmallbankOp;
    match template {
        TxnTemplate::NoOp => "noop",
        TxnTemplate::KvUpdate { .. } => "kv-update",
        TxnTemplate::Smallbank(op) => match op {
            SmallbankOp::CreateAccount { .. } => "create-account",
            SmallbankOp::QueryAccount { .. } => "query-account",
            SmallbankOp::DepositChecking { .. } => "deposit-checking",
            SmallbankOp::WriteCheck { .. } => "write-check",
            SmallbankOp::TransactSavings { .. } => "transact-savings",
            SmallbankOp::SendPayment { .. } => "send-payment",
            SmallbankOp::Amalgamate { .. } => "amalgamate",
            SmallbankOp::ModifiedRw { .. } => "modified-rw",
        },
        TxnTemplate::Ycsb(_) => "ycsb",
    }
}

/// Precomputed per-workload classifier: every template of the workload's catalog with its
/// class, in `catalog` order. A mix holds at most six templates, so a lookup is a linear scan
/// by name, which is cheaper than hashing the name. Templates outside the catalog fall back to
/// [`TemplateClass::Unknown`].
#[derive(Clone, Debug)]
pub struct TemplateClassifier {
    templates: Vec<(&'static str, TemplateClass)>,
}

impl TemplateClassifier {
    /// Builds the classifier for a workload kind by classifying its whole catalog.
    pub(crate) fn new(kind: &WorkloadKind) -> Self {
        let mix = catalog(kind);
        let classes = classify(&mix);
        TemplateClassifier {
            templates: mix.iter().map(|spec| spec.name).zip(classes).collect(),
        }
    }

    fn position(&self, template: &TxnTemplate) -> Option<usize> {
        let name = template_spec_name(template);
        self.templates.iter().position(|(n, _)| *n == name)
    }

    /// The class of one generated instance: its template's class (the rule is per template).
    pub fn classify_instance(&self, template: &TxnTemplate) -> TemplateClass {
        self.position(template)
            .map_or(TemplateClass::Unknown, |i| self.templates[i].1)
    }

    /// The `catalog` position of a generated template, or `None` for templates outside the
    /// mix. Stamped onto `Transaction::template_id`, which the ledger codec persists, so the
    /// catalog order is part of every ledger record.
    pub fn template_index(&self, template: &TxnTemplate) -> Option<u16> {
        self.position(template).and_then(|i| u16::try_from(i).ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smallbank::SmallbankOp;

    /// One instance of the catalog template called `name`.
    fn instance_of(name: &str) -> TxnTemplate {
        let account = 1;
        let op = match name {
            "noop" => return TxnTemplate::NoOp,
            "kv-update" => return TxnTemplate::KvUpdate { key_index: 1 },
            "ycsb" => return TxnTemplate::Ycsb(crate::ycsb::YcsbTxn { ops: vec![] }),
            "modified-rw" => SmallbankOp::ModifiedRw {
                reads: vec![1],
                writes: vec![2],
            },
            "create-account" => SmallbankOp::CreateAccount {
                account,
                checking: 1,
                savings: 1,
            },
            "query-account" => SmallbankOp::QueryAccount { account },
            "deposit-checking" => SmallbankOp::DepositChecking { account, amount: 1 },
            "write-check" => SmallbankOp::WriteCheck { account, amount: 1 },
            "transact-savings" => SmallbankOp::TransactSavings { account, amount: 1 },
            "send-payment" => SmallbankOp::SendPayment {
                from: 1,
                to: 2,
                amount: 1,
            },
            "amalgamate" => SmallbankOp::Amalgamate { from: 1, to: 2 },
            other => unreachable!("no template {other}"),
        };
        TxnTemplate::Smallbank(op)
    }

    /// Each catalog template of `kind` with its class and index, as the classifier reports
    /// them for an instance of it.
    fn classes_of(kind: &WorkloadKind) -> Vec<(&'static str, TemplateClass, Option<u16>)> {
        let classifier = TemplateClassifier::new(kind);
        let mix = catalog(kind);
        mix.iter()
            .zip(classify(&mix))
            .map(|(spec, class)| {
                let instance = instance_of(spec.name);
                assert_eq!(template_spec_name(&instance), spec.name);
                assert_eq!(classifier.classify_instance(&instance), class);
                (spec.name, class, classifier.template_index(&instance))
            })
            .collect()
    }

    /// The pinned Smallbank / YCSB classification table: these verdicts are part of the
    /// fast path's correctness contract and must not drift silently. The indices are pinned
    /// too: every ledger record persists one as its `template_id`, so reordering a catalog
    /// changes every ledger.
    #[test]
    fn classification_table_is_pinned() {
        use TemplateClass::{Safe, Unknown};
        assert_eq!(
            classes_of(&WorkloadKind::NoOp),
            vec![("noop", Safe, Some(0))]
        );
        assert_eq!(
            classes_of(&WorkloadKind::KvUpdate { theta: 0.5 }),
            vec![("kv-update", Unknown, Some(0))]
        );
        assert_eq!(
            classes_of(&WorkloadKind::ModifiedSmallbank),
            vec![("modified-rw", Unknown, Some(0))]
        );
        assert_eq!(
            classes_of(&WorkloadKind::CreateAccount),
            vec![("create-account", Safe, Some(0))]
        );
        // Mixed Smallbank: writers cover both families, so even the read-only query is
        // unknown (it can sit between a near-wr predecessor and an anti-rw successor).
        assert_eq!(
            classes_of(&WorkloadKind::MixedSmallbank { theta: 0.5 }),
            vec![
                ("query-account", Unknown, Some(0)),
                ("deposit-checking", Unknown, Some(1)),
                ("write-check", Unknown, Some(2)),
                ("transact-savings", Unknown, Some(3)),
                ("send-payment", Unknown, Some(4)),
                ("amalgamate", Unknown, Some(5)),
            ]
        );
        // YCSB: only the pure-read C mix qualifies.
        assert_eq!(
            classes_of(&WorkloadKind::Ycsb(YcsbProfile::a())),
            vec![("ycsb", Unknown, Some(0))]
        );
        assert_eq!(
            classes_of(&WorkloadKind::Ycsb(YcsbProfile::b())),
            vec![("ycsb", Unknown, Some(0))]
        );
        assert_eq!(
            classes_of(&WorkloadKind::Ycsb(YcsbProfile::f())),
            vec![("ycsb", Unknown, Some(0))]
        );
        assert_eq!(
            classes_of(&WorkloadKind::Ycsb(YcsbProfile::c())),
            vec![("ycsb", Safe, Some(0))]
        );
    }

    #[test]
    fn classifier_tags_generated_templates() {
        let classifier = TemplateClassifier::new(&WorkloadKind::Ycsb(YcsbProfile::c()));
        let txn = instance_of("ycsb");
        assert_eq!(classifier.classify_instance(&txn), TemplateClass::Safe);
        // Templates outside the catalog are conservatively unknown and have no index.
        assert_eq!(
            classifier.classify_instance(&TxnTemplate::NoOp),
            TemplateClass::Unknown
        );
        assert_eq!(classifier.template_index(&TxnTemplate::NoOp), None);

        let mixed = TemplateClassifier::new(&WorkloadKind::MixedSmallbank { theta: 0.0 });
        assert_eq!(
            mixed.classify_instance(&instance_of("query-account")),
            TemplateClass::Unknown
        );
    }

    #[test]
    fn fresh_writer_demotes_when_anyone_touches_its_families() {
        let create = TemplateSpec::fresh_writer("create", [FAMILY_CHECKING, FAMILY_SAVINGS]);
        assert_eq!(
            classify(std::slice::from_ref(&create)),
            vec![TemplateClass::Safe]
        );

        // A reader of either family demotes the fresh writer — and the reader itself, since
        // the engine conservatively counts fresh writes as writes when checking reads.
        let query = TemplateSpec::read_only("query", [FAMILY_CHECKING]);
        assert_eq!(
            classify(&[create.clone(), query]),
            vec![TemplateClass::Unknown, TemplateClass::Unknown]
        );

        // Losing the freshness guarantee demotes it even alone.
        let mut blind = create;
        blind.fresh_writes = false;
        assert_eq!(classify(&[blind]), vec![TemplateClass::Unknown]);
    }

    #[test]
    fn read_only_is_safe_only_without_writers_on_its_families() {
        let reader = TemplateSpec::read_only("reader", [FAMILY_USERTABLE]);
        assert_eq!(
            classify(std::slice::from_ref(&reader)),
            vec![TemplateClass::Safe]
        );

        let writer = TemplateSpec::read_write("writer", [], [FAMILY_USERTABLE]);
        assert_eq!(
            classify(&[reader.clone(), writer]),
            vec![TemplateClass::Unknown, TemplateClass::Unknown]
        );

        // A writer on a disjoint family leaves the reader safe.
        let other = TemplateSpec::read_write("other", [FAMILY_KV], [FAMILY_KV]);
        assert_eq!(
            classify(&[reader, other]),
            vec![TemplateClass::Safe, TemplateClass::Unknown]
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const FAMILIES: [KeyFamily; 4] = [FAMILY_KV, FAMILY_CHECKING, FAMILY_SAVINGS, FAMILY_USERTABLE];

    fn family_subset() -> impl Strategy<Value = Vec<KeyFamily>> {
        proptest::collection::vec(0usize..FAMILIES.len(), 0..3).prop_map(|idx| {
            let mut fams: Vec<KeyFamily> = idx.into_iter().map(|i| FAMILIES[i]).collect();
            fams.sort_unstable();
            fams.dedup();
            fams
        })
    }

    fn arb_spec() -> impl Strategy<Value = TemplateSpec> {
        (family_subset(), family_subset(), any::<bool>()).prop_map(|(reads, writes, fresh)| {
            TemplateSpec {
                name: "t",
                reads,
                writes,
                fresh_writes: fresh,
            }
        })
    }

    proptest! {
        /// Adding one read op to a safe template never *promotes* anything, and the mutated
        /// template itself demotes whenever the new family has a writer in the mix.
        #[test]
        fn adding_a_conflicting_op_demotes_to_unknown(
            mut mix in proptest::collection::vec(arb_spec(), 1..5),
            target in 0usize..5,
            family in 0usize..FAMILIES.len(),
        ) {
            let target = target % mix.len();
            let family = FAMILIES[family];
            let before = classify(&mix);
            if before[target] != TemplateClass::Safe {
                // Only mutations of *safe* templates are interesting; the strategy produces
                // plenty of safe starting points (read-only and fresh-writer shapes).
                continue;
            }

            // Mutation 1: the safe template gains one non-fresh write op. It must demote —
            // a non-fresh write always admits a ww/rw conflict with a sibling instance.
            let mut mutated = mix.clone();
            if !mutated[target].writes.contains(&family) {
                mutated[target].writes.push(family);
            }
            mutated[target].fresh_writes = false;
            let after = classify(&mutated);
            prop_assert_eq!(
                after[target],
                TemplateClass::Unknown,
                "safe template kept its verdict after gaining write on {}", family
            );

            // Mutation 2: some other template gains a write on a family the safe template
            // reads; the safe template must demote.
            if let Some(&read_family) = mix[target].reads.first() {
                let other = (target + 1) % mix.len();
                if other != target {
                    if !mix[other].writes.contains(&read_family) {
                        mix[other].writes.push(read_family);
                    }
                    let after = classify(&mix);
                    prop_assert_eq!(
                        after[target],
                        TemplateClass::Unknown,
                        "reader stayed safe although {} gained a writer", read_family
                    );
                }
            }
        }

        /// Soundness envelope: a safe verdict implies no shared family between the template's
        /// reads and anyone's writes, and (unless fresh) an empty write set.
        #[test]
        fn safe_verdicts_are_structurally_sound(
            mix in proptest::collection::vec(arb_spec(), 1..6),
        ) {
            let classes = classify(&mix);
            for (i, class) in classes.iter().enumerate() {
                if *class != TemplateClass::Safe {
                    continue;
                }
                for family in &mix[i].reads {
                    for other in &mix {
                        prop_assert!(
                            !other.writes.contains(family),
                            "safe template {} reads {} which {} writes", i, family, other.name
                        );
                    }
                }
                if !mix[i].writes.is_empty() {
                    prop_assert!(mix[i].fresh_writes, "non-fresh writer classified safe");
                    for family in &mix[i].writes {
                        for (j, other) in mix.iter().enumerate() {
                            if j == i { continue; }
                            prop_assert!(
                                !other.reads.contains(family) && !other.writes.contains(family),
                                "fresh writer {} shares family {} with template {}", i, family, j
                            );
                        }
                    }
                }
            }
        }
    }
}
