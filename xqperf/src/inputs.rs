//! Everything the benchmark feeds the program, derived from `--seed`.
//!
//! The same seed always yields the same documents and the same lookup list;
//! the program under test only ever sees the generated XML and query texts.

use xquec_xml::gen::XmarkGen;

/// Size of the document the catalog workload queries (the paper's Fig. 7
/// scale).
pub const PRIMARY_BYTES: usize = 16_000_000;
/// Size of the document of the ingest workload's cycles. Saving grows
/// faster than linearly with size; at 4 MB a cycle stays near eight seconds.
pub const INGEST_BYTES: usize = 4_000_000;
/// Size of the document of the write-path cycles the 16 MB workload makes
/// between their set-ups.
pub const PROBE_BYTES: usize = 1_000_000;
/// Queries in one lookup round (equal numbers of each shape).
pub const LOOKUPS_PER_ROUND: usize = 250;

/// SplitMix64: a tiny, well-mixed deterministic generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

/// Generator seed of the XMark document of `bytes` for workload seed `seed`.
fn doc_seed(seed: u64, bytes: usize) -> u64 {
    Rng::new(seed ^ (bytes as u64).rotate_left(32)).next_u64()
}

/// The XMark document of about `bytes` for workload seed `seed`.
pub fn xmark(bytes: usize, seed: u64) -> String {
    XmarkGen::with_target_size(bytes)
        .seed(doc_seed(seed, bytes))
        .generate()
}

/// Entity counts of a generated document, as the generator derives them
/// from its scale factor.
struct Counts {
    persons: u64,
    items: u64,
}

fn counts(bytes: usize) -> Counts {
    let scale = XmarkGen::with_target_size(bytes).scale;
    let count = |base: f64| ((base * scale).round() as u64).max(1);
    Counts {
        persons: count(25_500.0),
        items: count(21_750.0),
    }
}

/// The parameterised selective query shapes of the traced lookup round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    PersonById,
    ItemById,
    AuctionsByBuyer,
    PriceRangeCount,
    IncomeRangeCount,
}

impl Shape {
    pub const ALL: [Shape; 5] = [
        Shape::PersonById,
        Shape::ItemById,
        Shape::AuctionsByBuyer,
        Shape::PriceRangeCount,
        Shape::IncomeRangeCount,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Shape::PersonById => "person_by_id",
            Shape::ItemById => "item_by_id",
            Shape::AuctionsByBuyer => "auctions_by_buyer",
            Shape::PriceRangeCount => "price_range_count",
            Shape::IncomeRangeCount => "income_range_count",
        }
    }
}

/// One lookup: its shape and parameters. Ids are entity numbers (some
/// beyond the document's last entity, so absent); ranges are half-open, in
/// hundredths (prices and incomes carry two decimals).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lookup {
    pub shape: Shape,
    pub id: u64,
    pub lo: u64,
    pub hi: u64,
}

fn decimal(hundredths: u64) -> String {
    format!("{}.{:02}", hundredths / 100, hundredths % 100)
}

impl Lookup {
    /// The query text the engine runs.
    pub fn text(&self) -> String {
        let id = self.id;
        let (lo, hi) = (decimal(self.lo), decimal(self.hi));
        match self.shape {
            Shape::PersonById => format!(
                r#"FOR $p IN document("auction.xml")/site/people/person WHERE $p/@id = "person{id}" RETURN $p/name/text()"#
            ),
            Shape::ItemById => format!(
                r#"FOR $i IN document("auction.xml")/site/regions//item WHERE $i/@id = "item{id}" RETURN $i/name/text()"#
            ),
            Shape::AuctionsByBuyer => format!(
                r#"FOR $t IN document("auction.xml")/site/closed_auctions/closed_auction WHERE $t/buyer/@person = "person{id}" RETURN $t/price/text()"#
            ),
            Shape::PriceRangeCount => format!(
                r#"count(FOR $t IN document("auction.xml")/site/closed_auctions/closed_auction WHERE $t/price/text() >= {lo} and $t/price/text() < {hi} RETURN $t)"#
            ),
            Shape::IncomeRangeCount => format!(
                r#"count(document("auction.xml")/site/people/person/profile[@income >= {lo}][@income < {hi}])"#
            ),
        }
    }
}

/// The lookup round for a document of `bytes` and workload seed `seed`:
/// [`LOOKUPS_PER_ROUND`] queries, the same number of each shape, in a
/// seeded order. Parameters are drawn stratified, so that every seed's
/// round does about the same work: ids spread evenly over the document's
/// entities, with one in ten beyond the last entity and so absent; ranges
/// of fixed width spread evenly over the values the generator draws.
pub fn lookups(bytes: usize, seed: u64) -> Vec<Lookup> {
    let c = counts(bytes);
    let mut rng = Rng::new(seed ^ 0x100C_0F5E);
    let per_shape = (LOOKUPS_PER_ROUND / Shape::ALL.len()) as u64;
    let absent = per_shape / 10;
    // The j-th of `n` strata of lo..hi, with a seeded point inside it.
    let mut stratum = |j: u64, n: u64, lo: u64, hi: u64| {
        let w = ((hi - lo) / n).max(1);
        lo + j * w + rng.range(0, w)
    };
    let mut out = Vec::with_capacity(LOOKUPS_PER_ROUND);
    for shape in Shape::ALL {
        for j in 0..per_shape {
            let present = per_shape - absent;
            let mut id = |n: u64| match j.checked_sub(present) {
                None => stratum(j, present, 0, n),
                Some(k) => stratum(k, absent, n, n + n / 10),
            };
            let q = match shape {
                Shape::PersonById | Shape::AuctionsByBuyer => Lookup {
                    shape,
                    id: id(c.persons),
                    lo: 0,
                    hi: 0,
                },
                Shape::ItemById => Lookup {
                    shape,
                    id: id(c.items),
                    lo: 0,
                    hi: 0,
                },
                // Prices are drawn from 5.00..500.00; ranges are 10.00 wide.
                Shape::PriceRangeCount => {
                    let lo = stratum(j, per_shape, 500, 49_000);
                    Lookup {
                        shape,
                        id: 0,
                        lo,
                        hi: lo + 1_000,
                    }
                }
                // Incomes are drawn from 9876.00..99999.00; ranges are
                // 1000.00 wide.
                Shape::IncomeRangeCount => {
                    let lo = stratum(j, per_shape, 987_600, 9_899_900);
                    Lookup {
                        shape,
                        id: 0,
                        lo,
                        hi: lo + 100_000,
                    }
                }
            };
            out.push(q);
        }
    }
    // Fisher-Yates with the same generator.
    for i in (1..out.len()).rev() {
        let j = rng.range(0, i as u64 + 1) as usize;
        out.swap(i, j);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(lookups(INGEST_BYTES, 7), lookups(INGEST_BYTES, 7));
        assert_ne!(lookups(INGEST_BYTES, 7), lookups(INGEST_BYTES, 8));
        assert_eq!(xmark(50_000, 3), xmark(50_000, 3));
        assert_ne!(xmark(50_000, 3), xmark(50_000, 4));
    }

    #[test]
    fn every_shape_equally_often() {
        let l = lookups(PRIMARY_BYTES, 1);
        assert_eq!(l.len(), LOOKUPS_PER_ROUND);
        for s in Shape::ALL {
            assert_eq!(
                l.iter().filter(|q| q.shape == s).count(),
                LOOKUPS_PER_ROUND / 5
            );
        }
    }

    #[test]
    fn one_id_in_ten_is_absent() {
        let c = counts(PRIMARY_BYTES);
        let l = lookups(PRIMARY_BYTES, 3);
        let persons: Vec<_> = l.iter().filter(|q| q.shape == Shape::PersonById).collect();
        assert_eq!(
            persons.iter().filter(|q| q.id >= c.persons).count(),
            persons.len() / 10
        );
    }

    #[test]
    fn decimals_have_two_places() {
        assert_eq!(decimal(500), "5.00");
        assert_eq!(decimal(12_345), "123.45");
        assert_eq!(decimal(7), "0.07");
    }
}
