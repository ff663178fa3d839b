//! Answers computed apart from XQueC, against which every output is checked.
//!
//! * Catalog queries: the Galax-like baseline over the uncompressed DOM,
//!   except Q8 and Q9, which Galax evaluates with nested loops (minutes at
//!   16 MB); those two are hash joins written here over the parsed document.
//! * Lookups: read straight off the parsed document.
//! * Container contents: the multiset of values at every leaf path of the
//!   parsed document.
//!
//! Outputs are compared exactly, except Q19 (see [`canonical`]).

use crate::inputs::{Lookup, Shape};
use std::collections::{BTreeMap, HashMap};
use xquec_baselines::GalaxEngine;
use xquec_core::queries::XMARK_QUERIES;
use xquec_xml::escape::{escape_attr, escape_text};
use xquec_xml::{Document, NodeId, NodeKind};

/// The uncompressed document plus the indexes the hand-written evaluations
/// use.
pub struct Oracle {
    doc: Document,
}

/// A price or income in hundredths, as the generator writes it (`{:.2}`).
fn hundredths(s: &str) -> Option<u64> {
    let (int, frac) = s.trim().split_once('.')?;
    if frac.len() != 2 {
        return None;
    }
    Some(int.parse::<u64>().ok()? * 100 + frac.parse::<u64>().ok()?)
}

impl Oracle {
    pub fn new(xml: &str) -> Result<Self, String> {
        Ok(Oracle {
            doc: Document::parse(xml).map_err(|e| format!("oracle parse: {e}"))?,
        })
    }

    fn child(&self, n: NodeId, tag: &str) -> Option<NodeId> {
        self.doc.child_elements(n, Some(tag)).next()
    }

    /// Elements reached from the root element by the child steps of `path`
    /// (the first step names the root).
    fn select(&self, path: &[&str]) -> Vec<NodeId> {
        let Some(root) = self.doc.root() else {
            return Vec::new();
        };
        if self.doc.tag(root) != path.first().copied() {
            return Vec::new();
        }
        let mut cur = vec![root];
        for step in &path[1..] {
            cur = cur
                .iter()
                .flat_map(|&n| self.doc.child_elements(n, Some(step)))
                .collect();
        }
        cur
    }

    /// `$n/<tag>/text()` serialized as XQueC serializes atomic sequences:
    /// escaped, separated by single spaces.
    fn child_texts(&self, n: NodeId, tag: &str) -> Vec<String> {
        self.doc
            .child_elements(n, Some(tag))
            .flat_map(|c| self.doc.children(c).to_vec())
            .filter_map(|t| match self.doc.kind(t) {
                NodeKind::Text(s) => Some(s.clone()),
                _ => None,
            })
            .collect()
    }

    fn persons(&self) -> Vec<NodeId> {
        self.select(&["site", "people", "person"])
    }

    fn closed_auctions(&self) -> Vec<NodeId> {
        self.select(&["site", "closed_auctions", "closed_auction"])
    }

    fn buyer(&self, t: NodeId) -> Option<&str> {
        self.child(t, "buyer")
            .and_then(|b| self.doc.attribute(b, "person"))
    }

    /// Q8 — purchases per person, as a hash join on buyer = person id.
    pub fn q8(&self) -> String {
        let mut bought: HashMap<&str, usize> = HashMap::new();
        for t in self.closed_auctions() {
            if let Some(b) = self.buyer(t) {
                *bought.entry(b).or_default() += 1;
            }
        }
        let mut out = String::new();
        for p in self.persons() {
            let n = self
                .doc
                .attribute(p, "id")
                .and_then(|id| bought.get(id))
                .copied()
                .unwrap_or(0);
            let name = self.child_texts(p, "name").join(" ");
            out.push_str(&format!(
                "<item person=\"{}\">{n}</item>",
                escape_attr(&name)
            ));
        }
        out
    }

    /// Q9 — persons, their purchases and the European items bought, as two
    /// hash joins.
    pub fn q9(&self) -> String {
        let mut europe: HashMap<&str, Vec<NodeId>> = HashMap::new();
        for i in self.select(&["site", "regions", "europe", "item"]) {
            if let Some(id) = self.doc.attribute(i, "id") {
                europe.entry(id).or_default().push(i);
            }
        }
        let mut by_buyer: HashMap<&str, Vec<NodeId>> = HashMap::new();
        for t in self.closed_auctions() {
            if let Some(b) = self.buyer(t) {
                by_buyer.entry(b).or_default().push(t);
            }
        }
        let mut out = String::new();
        for p in self.persons() {
            let name = self.child_texts(p, "name").join(" ");
            let bought = self.doc.attribute(p, "id").and_then(|id| by_buyer.get(id));
            let Some(bought) = bought else {
                out.push_str(&format!("<person name=\"{}\"/>", escape_attr(&name)));
                continue;
            };
            out.push_str(&format!("<person name=\"{}\">", escape_attr(&name)));
            for &t in bought {
                let item = self
                    .child(t, "itemref")
                    .and_then(|r| self.doc.attribute(r, "item"));
                let names: Vec<String> = item
                    .and_then(|id| europe.get(id))
                    .into_iter()
                    .flatten()
                    .flat_map(|&i| self.child_texts(i, "name"))
                    .map(|s| escape_text(&s).into_owned())
                    .collect();
                if names.is_empty() {
                    out.push_str("<item/>");
                } else {
                    out.push_str(&format!("<item>{}</item>", names.join(" ")));
                }
            }
            out.push_str("</person>");
        }
        out
    }

    /// The answer to one lookup.
    pub fn lookup(&self, q: &Lookup) -> String {
        let join = |vals: Vec<String>| {
            vals.iter()
                .map(|v| escape_text(v).into_owned())
                .collect::<Vec<_>>()
                .join(" ")
        };
        match q.shape {
            Shape::PersonById => {
                let id = format!("person{}", q.id);
                join(
                    self.persons()
                        .into_iter()
                        .filter(|&p| self.doc.attribute(p, "id") == Some(id.as_str()))
                        .flat_map(|p| self.child_texts(p, "name"))
                        .collect(),
                )
            }
            Shape::ItemById => {
                let id = format!("item{}", q.id);
                let Some(regions) = self.select(&["site", "regions"]).first().copied() else {
                    return String::new();
                };
                join(
                    self.doc
                        .descendant_elements(regions, "item")
                        .into_iter()
                        .filter(|&i| self.doc.attribute(i, "id") == Some(id.as_str()))
                        .flat_map(|i| self.child_texts(i, "name"))
                        .collect(),
                )
            }
            Shape::AuctionsByBuyer => {
                let id = format!("person{}", q.id);
                join(
                    self.closed_auctions()
                        .into_iter()
                        .filter(|&t| self.buyer(t) == Some(id.as_str()))
                        .flat_map(|t| self.child_texts(t, "price"))
                        .collect(),
                )
            }
            Shape::PriceRangeCount => self
                .closed_auctions()
                .into_iter()
                .filter(|&t| {
                    self.child_texts(t, "price")
                        .iter()
                        .any(|p| hundredths(p).is_some_and(|v| v >= q.lo && v < q.hi))
                })
                .count()
                .to_string(),
            Shape::IncomeRangeCount => self
                .persons()
                .into_iter()
                .filter_map(|p| self.child(p, "profile"))
                .filter(|&f| {
                    self.doc
                        .attribute(f, "income")
                        .and_then(hundredths)
                        .is_some_and(|v| v >= q.lo && v < q.hi)
                })
                .count()
                .to_string(),
        }
    }

    /// Every value of the document grouped by leaf path, in the path syntax
    /// of `Repository::container_path_string`, each group sorted.
    pub fn values_by_path(&self) -> BTreeMap<String, Vec<String>> {
        fn walk(doc: &Document, n: NodeId, path: &str, out: &mut BTreeMap<String, Vec<String>>) {
            for &c in doc.children(n) {
                match doc.kind(c) {
                    NodeKind::Attribute(name, v) => out
                        .entry(format!("{path}/@{}", doc.name(*name)))
                        .or_default()
                        .push(v.clone()),
                    NodeKind::Text(t) => out
                        .entry(format!("{path}/text()"))
                        .or_default()
                        .push(t.clone()),
                    NodeKind::Element(name) => {
                        walk(doc, c, &format!("{path}/{}", doc.name(*name)), out)
                    }
                    NodeKind::Document => {}
                }
            }
        }
        let mut out = BTreeMap::new();
        walk(&self.doc, self.doc.document_node(), "", &mut out);
        for v in out.values_mut() {
            v.sort();
        }
        out
    }
}

/// Canonical answers to the whole catalog, in catalog order.
pub fn catalog(xml: &str, oracle: &Oracle) -> Result<Vec<String>, String> {
    let galax = GalaxEngine::load(xml).map_err(|e| e.to_string())?;
    XMARK_QUERIES
        .iter()
        .map(|q| {
            let out = match q.id {
                "Q8" => oracle.q8(),
                "Q9" => oracle.q9(),
                _ => galax
                    .run(q.text)
                    .map_err(|e| format!("galax {}: {e}", q.id))?,
            };
            Ok(canonical(q.id, &out))
        })
        .collect()
}

/// Split a serialized sequence of elements into its top-level elements.
/// Quoted attribute values may hold `>`; text never holds a raw `<`.
fn top_level(s: &str) -> Vec<&str> {
    let b = s.as_bytes();
    let mut out = Vec::new();
    let (mut depth, mut start, mut i) = (0usize, 0usize, 0usize);
    while i < b.len() {
        if b[i] != b'<' {
            i += 1;
            continue;
        }
        let closing = b.get(i + 1) == Some(&b'/');
        let mut j = i + 1;
        let mut quoted = false;
        while j < b.len() && (quoted || b[j] != b'>') {
            if b[j] == b'"' {
                quoted = !quoted;
            }
            j += 1;
        }
        let self_closing = j > 0 && b[j - 1] == b'/';
        if depth == 0 {
            start = i;
        }
        if closing {
            depth = depth.saturating_sub(1);
        } else if !self_closing {
            depth += 1;
        }
        i = j + 1;
        if depth == 0 {
            out.push(&s[start..i.min(s.len())]);
        }
    }
    out
}

/// The text outside the tags of a serialized element.
fn text_of(fragment: &str) -> String {
    let mut out = String::new();
    let mut in_tag = false;
    let mut quoted = false;
    for ch in fragment.chars() {
        match ch {
            '"' if in_tag => quoted = !quoted,
            '<' if !quoted => in_tag = true,
            '>' if in_tag && !quoted => in_tag = false,
            c if !in_tag => out.push(c),
            _ => {}
        }
    }
    out
}

/// The form in which an answer is compared. Q19 orders items by location,
/// and items that share a location may come in either order; within each
/// run of equal locations the items are sorted, so the order of the
/// locations themselves is still checked. Every other answer is compared
/// as it is.
pub fn canonical(id: &str, out: &str) -> String {
    if id != "Q19" {
        return out.to_owned();
    }
    let frags = top_level(out);
    let mut canon: Vec<&str> = Vec::with_capacity(frags.len());
    let mut i = 0;
    while i < frags.len() {
        let key = text_of(frags[i]);
        let mut j = i + 1;
        while j < frags.len() && text_of(frags[j]) == key {
            j += 1;
        }
        let mut run = frags[i..j].to_vec();
        run.sort_unstable();
        canon.extend(run);
        i = j;
    }
    canon.concat()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q19_canonical_sorts_ties_only() {
        let a = r#"<item name="b">Chad</item><item name="a">Chad</item><item name="c"/><item name="z">Peru</item>"#;
        let b = r#"<item name="a">Chad</item><item name="b">Chad</item><item name="c"/><item name="z">Peru</item>"#;
        assert_eq!(canonical("Q19", a), canonical("Q19", b));
        let swapped = r#"<item name="z">Peru</item><item name="a">Chad</item><item name="b">Chad</item><item name="c"/>"#;
        assert_ne!(canonical("Q19", swapped), canonical("Q19", b));
        assert_eq!(canonical("Q1", a), a);
    }

    #[test]
    fn top_level_respects_nesting_and_quotes() {
        let s = r#"<a x="1>2"><b/>t</a><c/><d>u</d>"#;
        assert_eq!(
            top_level(s),
            vec![r#"<a x="1>2"><b/>t</a>"#, "<c/>", "<d>u</d>"]
        );
        assert_eq!(text_of(r#"<a x="1>2"><b/>t</a>"#), "t");
    }

    #[test]
    fn hundredths_parse_two_decimals() {
        assert_eq!(hundredths("123.45"), Some(12_345));
        assert_eq!(hundredths("5.00"), Some(500));
        assert_eq!(hundredths("5.0"), None);
    }
}
