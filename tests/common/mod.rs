//! What the suites that drive one input tagged and untagged share.

use fabricsharp::common::txn::TemplateClass;
use fabricsharp::ledger::{Block, Digest, Ledger};

/// The tip `ledger` has with every template tag cleared to `Unknown`: the tip of the chain the
/// same input builds untagged, when the tags are all that tell the two apart. A tag is a byte
/// of its transaction and the data hash covers it, so a tagged chain's own tip differs.
pub fn untagged_tip(ledger: &Ledger) -> Digest {
    let mut untagged = Ledger::new();
    for block in ledger.iter() {
        let txns = block.entries.iter().map(|entry| {
            entry
                .txn
                .clone()
                .with_template_class(TemplateClass::Unknown)
        });
        let rebuilt = Block::build(block.number(), untagged.tip_hash(), txns.collect());
        untagged.append(rebuilt).expect("a rebuilt block chains");
    }
    untagged.tip_hash()
}
