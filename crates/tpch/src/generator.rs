//! Deterministic, scaled-down TPC-H data generation.
//!
//! The generator preserves the cardinality ratios of the TPC-H specification
//! (per scale unit: 150k customers, 1.5M orders, ~6M lineitems, 200k parts,
//! 10k suppliers, 800k partsupps) at a configurable, much smaller scale, and
//! keeps the foreign-key relationships and value distributions the queries
//! rely on. All randomness is driven by a seeded PRNG so that every run — and
//! every rebalancing scheme under comparison — sees identical data.

use dynahash_lsm::rng::SplitMix64;

use crate::schema::*;

/// The size of the generated database.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TpchScale {
    /// Number of orders to generate. Other tables follow the TPC-H ratios:
    /// customers = orders/10, lineitems ≈ 4×orders, parts = orders/7.5,
    /// suppliers = orders/150, partsupp = 4×parts.
    pub orders: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl TpchScale {
    /// A tiny scale suitable for unit tests (a few hundred lineitems).
    pub fn tiny() -> Self {
        TpchScale {
            orders: 100,
            seed: 42,
        }
    }

    /// The scale used by the benchmark harness: `orders_per_node × nodes`
    /// orders, mirroring the paper's "scale factor proportional to the
    /// cluster size" setup.
    pub fn per_node(orders_per_node: usize, nodes: usize) -> Self {
        TpchScale {
            orders: orders_per_node * nodes.max(1),
            seed: 42,
        }
    }

    /// Expected number of customers.
    pub fn customers(&self) -> usize {
        (self.orders / 10).max(10)
    }

    /// Expected number of parts.
    pub fn parts(&self) -> usize {
        (self.orders / 8).max(20)
    }

    /// Expected number of suppliers.
    pub fn suppliers(&self) -> usize {
        (self.orders / 100).max(5)
    }
}

/// A fully generated TPC-H database.
#[derive(Debug, Clone, Default)]
pub struct TpchData {
    /// REGION rows.
    pub region: Vec<Region>,
    /// NATION rows.
    pub nation: Vec<Nation>,
    /// SUPPLIER rows.
    pub supplier: Vec<Supplier>,
    /// CUSTOMER rows.
    pub customer: Vec<Customer>,
    /// PART rows.
    pub part: Vec<Part>,
    /// PARTSUPP rows.
    pub partsupp: Vec<PartSupp>,
    /// ORDERS rows.
    pub orders: Vec<Orders>,
    /// LINEITEM rows.
    pub lineitem: Vec<LineItem>,
}

impl TpchData {
    /// Generates the database at the given scale.
    pub fn generate(scale: TpchScale) -> TpchData {
        let mut rng = SplitMix64::seed_from_u64(scale.seed);
        let n_customers = scale.customers();
        let n_parts = scale.parts();
        let n_suppliers = scale.suppliers();
        let n_orders = scale.orders;

        let region: Vec<Region> = (0..5).map(|r| Region { r_regionkey: r }).collect();
        let nation: Vec<Nation> = (0..25)
            .map(|n| Nation {
                n_nationkey: n,
                n_regionkey: n % 5,
            })
            .collect();

        let supplier: Vec<Supplier> = (1..=n_suppliers as u64)
            .map(|k| Supplier {
                s_suppkey: k,
                s_nationkey: rng.gen_range(0..25),
                s_acctbal: rng.gen_range(0..2_000_000),
                s_complaint: u64::from(rng.gen_ratio(1, 20)),
            })
            .collect();

        let customer: Vec<Customer> = (1..=n_customers as u64)
            .map(|k| Customer {
                c_custkey: k,
                c_nationkey: rng.gen_range(0..25),
                c_mktsegment: rng.gen_range(0..5),
                c_acctbal: rng.gen_range(0..2_000_000),
                c_phone_cc: 10 + rng.gen_range(0..25),
            })
            .collect();

        let part: Vec<Part> = (1..=n_parts as u64)
            .map(|k| Part {
                p_partkey: k,
                p_brand: rng.gen_range(0..25),
                p_type: rng.gen_range(0..150),
                p_size: rng.gen_range(1..=50),
                p_container: rng.gen_range(0..40),
                p_retailprice: 90_000 + rng.gen_range(0..20_000),
                p_mfgr: rng.gen_range(0..5),
            })
            .collect();

        // Each part is supplied by 4 suppliers (TPC-H convention).
        let mut partsupp = Vec::with_capacity(n_parts * 4);
        for p in &part {
            for i in 0..4u64 {
                let supp =
                    1 + (p.p_partkey + i * (n_suppliers as u64 / 4).max(1)) % n_suppliers as u64;
                partsupp.push(PartSupp {
                    ps_partkey: p.p_partkey,
                    ps_suppkey: supp,
                    ps_availqty: rng.gen_range(1..10_000),
                    ps_supplycost: rng.gen_range(100..100_000),
                });
            }
        }

        let mut orders = Vec::with_capacity(n_orders);
        let mut lineitem = Vec::new();
        for k in 1..=n_orders as u64 {
            let orderdate = rng.gen_range(0..DATE_RANGE_DAYS - 180);
            let n_lines = rng.gen_range(1..=7u64);
            let mut total = 0u64;
            for line in 1..=n_lines {
                let quantity = rng.gen_range(1..=50u64);
                let partkey = rng.gen_range(1..=n_parts as u64);
                let price = quantity * (90_000 + rng.gen_range(0..20_000)) / 10;
                total += price;
                let shipdate = orderdate + rng.gen_range(1..=121);
                let commitdate = orderdate + rng.gen_range(30..=90);
                lineitem.push(LineItem {
                    l_orderkey: k,
                    l_linenumber: line,
                    l_partkey: partkey,
                    l_suppkey: 1 + (partkey % n_suppliers as u64),
                    l_quantity: quantity,
                    l_extendedprice: price,
                    l_discount: rng.gen_range(0..=10),
                    l_tax: rng.gen_range(0..=8),
                    l_returnflag: rng.gen_range(0..3),
                    l_linestatus: u64::from(shipdate > DATE_RANGE_DAYS / 2),
                    l_shipdate: shipdate,
                    l_commitdate: commitdate,
                    l_receiptdate: shipdate + rng.gen_range(1..=30),
                    l_shipmode: rng.gen_range(0..7),
                    l_shipinstruct: rng.gen_range(0..4),
                });
            }
            orders.push(Orders {
                o_orderkey: k,
                o_custkey: 1 + rng.gen_range(0..n_customers as u64),
                o_orderstatus: rng.gen_range(0..3),
                o_totalprice: total,
                o_orderdate: orderdate,
                o_orderpriority: rng.gen_range(0..5),
                o_shippriority: 0,
                o_clerk: rng.gen_range(0..1000),
            });
        }

        TpchData {
            region,
            nation,
            supplier,
            customer,
            part,
            partsupp,
            orders,
            lineitem,
        }
    }

    /// Total number of rows over all tables.
    pub fn total_rows(&self) -> usize {
        self.region.len()
            + self.nation.len()
            + self.supplier.len()
            + self.customer.len()
            + self.part.len()
            + self.partsupp.len()
            + self.orders.len()
            + self.lineitem.len()
    }
}

/// Generates additional LineItem rows (with fresh order keys above the
/// existing range) for concurrent-ingestion experiments (Figure 7c inserts
/// new records into LineItem while a rebalance is running).
pub fn extra_lineitems(start_orderkey: u64, count: usize, seed: u64) -> Vec<LineItem> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..count as u64)
        .map(|i| {
            let orderkey = start_orderkey + i / 4;
            let shipdate = rng.gen_range(0..DATE_RANGE_DAYS);
            LineItem {
                l_orderkey: orderkey,
                l_linenumber: 1 + (i % 4),
                l_partkey: 1 + rng.gen_range(0..1000),
                l_suppkey: 1 + rng.gen_range(0..100),
                l_quantity: rng.gen_range(1..=50),
                l_extendedprice: rng.gen_range(10_000..5_000_000),
                l_discount: rng.gen_range(0..=10),
                l_tax: rng.gen_range(0..=8),
                l_returnflag: rng.gen_range(0..3),
                l_linestatus: 0,
                l_shipdate: shipdate,
                l_commitdate: shipdate + 10,
                l_receiptdate: shipdate + 20,
                l_shipmode: rng.gen_range(0..7),
                l_shipinstruct: rng.gen_range(0..4),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn small() -> TpchScale {
        TpchScale {
            orders: 1_000,
            seed: 42,
        }
    }

    #[test]
    fn cardinality_ratios_follow_tpch() {
        let data = TpchData::generate(small());
        assert_eq!(data.orders.len(), 1000);
        assert_eq!(data.customer.len(), 100);
        assert_eq!(data.region.len(), 5);
        assert_eq!(data.nation.len(), 25);
        assert_eq!(data.partsupp.len(), data.part.len() * 4);
        // on average 4 lineitems per order
        assert!(data.lineitem.len() > 3 * data.orders.len());
        assert!(data.lineitem.len() < 5 * data.orders.len());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TpchData::generate(small());
        let b = TpchData::generate(small());
        assert_eq!(a.lineitem, b.lineitem);
        assert_eq!(a.orders, b.orders);
        let c = TpchData::generate(TpchScale {
            orders: 1000,
            seed: 43,
        });
        assert_ne!(a.lineitem, c.lineitem);
    }

    #[test]
    fn foreign_keys_are_valid() {
        let data = TpchData::generate(TpchScale::tiny());
        let custkeys: BTreeSet<u64> = data.customer.iter().map(|c| c.c_custkey).collect();
        let partkeys: BTreeSet<u64> = data.part.iter().map(|p| p.p_partkey).collect();
        let suppkeys: BTreeSet<u64> = data.supplier.iter().map(|s| s.s_suppkey).collect();
        let orderkeys: BTreeSet<u64> = data.orders.iter().map(|o| o.o_orderkey).collect();
        for o in &data.orders {
            assert!(custkeys.contains(&o.o_custkey));
        }
        for l in &data.lineitem {
            assert!(orderkeys.contains(&l.l_orderkey));
            assert!(partkeys.contains(&l.l_partkey));
            assert!(suppkeys.contains(&l.l_suppkey));
        }
        for ps in &data.partsupp {
            assert!(partkeys.contains(&ps.ps_partkey));
            assert!(suppkeys.contains(&ps.ps_suppkey));
        }
    }

    #[test]
    fn primary_keys_are_unique() {
        let data = TpchData::generate(TpchScale::tiny());
        let li_keys: BTreeSet<_> = data.lineitem.iter().map(|l| l.primary_key()).collect();
        assert_eq!(li_keys.len(), data.lineitem.len());
        let o_keys: BTreeSet<_> = data.orders.iter().map(|o| o.primary_key()).collect();
        assert_eq!(o_keys.len(), data.orders.len());
    }

    #[test]
    fn extra_lineitems_use_fresh_keys() {
        let extra = extra_lineitems(1_000_000, 100, 7);
        assert_eq!(extra.len(), 100);
        assert!(extra.iter().all(|l| l.l_orderkey >= 1_000_000));
        let keys: BTreeSet<_> = extra.iter().map(|l| l.primary_key()).collect();
        assert_eq!(keys.len(), 100);
    }
}
