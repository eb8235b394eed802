//! The 22 TPC-H queries expressed against the cluster query API.
//!
//! Each query preserves the access pattern that matters for the paper's
//! evaluation:
//!
//! * which tables are scanned in full versus reached through the two
//!   covering secondary indexes (LineItem on `l_shipdate`, Orders on
//!   `o_orderdate`);
//! * whether the query needs primary-key-ordered scans (q18 groups on a
//!   prefix of LineItem's primary key, which forces the bucketed LSM-tree to
//!   merge-sort its buckets);
//! * whether the query is scan-heavy (q1, q17, q18, q19, q21) or dominated by
//!   joins and aggregation, which the engine redistributes evenly across the
//!   cluster and therefore does not suffer from bucket-placement imbalance.
//!
//! Every query returns a deterministic `f64` aggregate computed from the
//! scanned data, so integration tests can assert that all rebalancing
//! schemes — before and after rebalancing — return identical answers.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use dynahash_cluster::{ClusterError, QueryExecutor};
use dynahash_core::PartitionId;
use dynahash_lsm::entry::Key;

use crate::loader::{TpchTables, LINEITEM_INDEX, ORDERS_INDEX};
use crate::schema::*;

/// Number of TPC-H queries.
pub const NUM_QUERIES: usize = 22;

/// Static characteristics of a query, used by the experiment harness to
/// explain the results (scan-heavy queries are the ones sensitive to load
/// imbalance; q18 is the one sensitive to bucketed primary-key order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryTraits {
    /// Query number (1-22).
    pub number: usize,
    /// True if the query's cost is dominated by scanning LineItem.
    pub scan_heavy: bool,
    /// True if the query requires primary-key-ordered LineItem scans.
    pub needs_pk_order: bool,
    /// True if the query's main access path is a secondary index.
    pub uses_secondary_index: bool,
}

/// Returns the traits of query `n` (1-based).
pub fn query_traits(n: usize) -> QueryTraits {
    QueryTraits {
        number: n,
        scan_heavy: matches!(n, 1 | 9 | 17 | 18 | 19 | 21),
        needs_pk_order: n == 18,
        uses_secondary_index: matches!(n, 4 | 5 | 6 | 14 | 15),
    }
}

type QResult = Result<f64, ClusterError>;

fn money(cents: u64) -> f64 {
    cents as f64 / 100.0
}

/// Charges join/aggregation compute spread evenly across all partitions:
/// after the scan, the engine re-partitions the data for joins and group-bys,
/// so this work does not inherit the scan-side imbalance.
fn charge_balanced_compute(
    exec: &mut QueryExecutor<'_>,
    records: u64,
    weight: f64,
) -> Result<(), ClusterError> {
    let partitions = exec.cluster().topology().partitions();
    if partitions.is_empty() {
        return Ok(());
    }
    let per = records / partitions.len() as u64;
    for p in partitions {
        exec.charge_compute(p, per, weight)?;
    }
    Ok(())
}

fn scan_decoded<T>(
    exec: &mut QueryExecutor<'_>,
    dataset: dynahash_cluster::DatasetId,
    ordered: bool,
    decode: impl Fn(&[u8]) -> Option<T>,
) -> Result<Vec<(PartitionId, Vec<T>)>, ClusterError> {
    exec.scan_map(dataset, ordered, |_, op| op.value().and_then(|v| decode(v)))
}

fn scan_lineitem(
    exec: &mut QueryExecutor<'_>,
    t: &TpchTables,
    ordered: bool,
) -> Result<Vec<(PartitionId, Vec<LineItem>)>, ClusterError> {
    scan_decoded(exec, t.lineitem, ordered, LineItem::decode)
}

fn scan_orders(
    exec: &mut QueryExecutor<'_>,
    t: &TpchTables,
) -> Result<Vec<(PartitionId, Vec<Orders>)>, ClusterError> {
    scan_decoded(exec, t.orders, false, Orders::decode)
}

fn all<T>(scans: Vec<(PartitionId, Vec<T>)>) -> Vec<T> {
    scans.into_iter().flat_map(|(_, v)| v).collect()
}

/// Index-scan LineItem by shipdate range, then fetch the matching records
/// from the bucketed primary index (the index-then-fetch plan).
fn lineitems_by_shipdate(
    exec: &mut QueryExecutor<'_>,
    t: &TpchTables,
    lo: u64,
    hi: u64,
) -> Result<Vec<LineItem>, ClusterError> {
    let lo_k = Key::from_u64(lo);
    let hi_k = Key::from_u64(hi);
    let hits = exec.index_scan(t.lineitem, LINEITEM_INDEX, Some(&lo_k), Some(&hi_k))?;
    let mut out = Vec::new();
    for (p, entries) in hits {
        let keys: Vec<Key> = entries.into_iter().map(|se| se.primary).collect();
        let fetched = exec.fetch(t.lineitem, p, &keys)?;
        out.extend(
            fetched
                .iter()
                .filter_map(|e| e.op.value().and_then(|v| LineItem::decode(v))),
        );
    }
    Ok(out)
}

/// Index-scan Orders by orderdate range, then fetch the matching records.
fn orders_by_orderdate(
    exec: &mut QueryExecutor<'_>,
    t: &TpchTables,
    lo: u64,
    hi: u64,
) -> Result<Vec<Orders>, ClusterError> {
    let lo_k = Key::from_u64(lo);
    let hi_k = Key::from_u64(hi);
    let hits = exec.index_scan(t.orders, ORDERS_INDEX, Some(&lo_k), Some(&hi_k))?;
    let mut out = Vec::new();
    for (p, entries) in hits {
        let keys: Vec<Key> = entries.into_iter().map(|se| se.primary).collect();
        let fetched = exec.fetch(t.orders, p, &keys)?;
        out.extend(
            fetched
                .iter()
                .filter_map(|e| e.op.value().and_then(|v| Orders::decode(v))),
        );
    }
    Ok(out)
}

fn customers_by_key(
    exec: &mut QueryExecutor<'_>,
    t: &TpchTables,
) -> Result<HashMap<u64, Customer>, ClusterError> {
    let customers = all(scan_decoded(exec, t.customer, false, |v| {
        Customer::decode(v)
    })?);
    Ok(customers.into_iter().map(|c| (c.c_custkey, c)).collect())
}

// --------------------------------------------------------------------- q1-q22

/// q1: pricing summary report — full LineItem scan, 8-way group-by.
fn q1(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let cutoff = DATE_RANGE_DAYS - 90;
    let scans = scan_lineitem(exec, t, false)?;
    let total: u64 = scans.iter().map(|(_, v)| v.len() as u64).sum();
    charge_balanced_compute(exec, total, 1.5)?;
    let mut groups: BTreeMap<(u64, u64), (u64, u64, f64)> = BTreeMap::new();
    for l in all(scans) {
        if l.l_shipdate <= cutoff {
            let g = groups.entry((l.l_returnflag, l.l_linestatus)).or_default();
            g.0 += l.l_quantity;
            g.1 += 1;
            g.2 += money(l.l_extendedprice) * (1.0 - l.l_discount as f64 / 100.0);
        }
    }
    exec.charge_coordinator(groups.len() as u64, 1.0);
    Ok(groups.values().map(|g| g.2 + g.0 as f64).sum())
}

/// q2: minimum-cost supplier — small-table joins over part/partsupp/supplier.
fn q2(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let parts = all(scan_decoded(exec, t.part, false, Part::decode)?);
    let partsupp = all(scan_decoded(exec, t.partsupp, false, |v| {
        PartSupp::decode(v)
    })?);
    let suppliers = all(scan_decoded(exec, t.supplier, false, |v| {
        Supplier::decode(v)
    })?);
    let nations = all(scan_decoded(exec, t.nation, false, Nation::decode)?);
    charge_balanced_compute(exec, (parts.len() + partsupp.len()) as u64, 1.0)?;

    let europe: BTreeSet<u64> = nations
        .iter()
        .filter(|n| n.n_regionkey == 3)
        .map(|n| n.n_nationkey)
        .collect();
    let supp_by_key: HashMap<u64, &Supplier> = suppliers.iter().map(|s| (s.s_suppkey, s)).collect();
    let wanted: BTreeSet<u64> = parts
        .iter()
        .filter(|p| p.p_size == 15 && p.p_type % 5 == 0)
        .map(|p| p.p_partkey)
        .collect();
    let mut min_cost: BTreeMap<u64, u64> = BTreeMap::new();
    for ps in &partsupp {
        if !wanted.contains(&ps.ps_partkey) {
            continue;
        }
        let Some(s) = supp_by_key.get(&ps.ps_suppkey) else {
            continue;
        };
        if !europe.contains(&s.s_nationkey) {
            continue;
        }
        let e = min_cost.entry(ps.ps_partkey).or_insert(u64::MAX);
        *e = (*e).min(ps.ps_supplycost);
    }
    exec.charge_coordinator(min_cost.len() as u64, 0.5);
    Ok(min_cost
        .values()
        .filter(|&&c| c != u64::MAX)
        .map(|&c| money(c))
        .sum())
}

/// q3: shipping priority — customer ⋈ orders ⋈ lineitem with date filters.
fn q3(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let cutoff = date(1995, 74);
    let customers = customers_by_key(exec, t)?;
    let orders = all(scan_orders(exec, t)?);
    let scans = scan_lineitem(exec, t, false)?;
    let total: u64 = scans.iter().map(|(_, v)| v.len() as u64).sum();
    charge_balanced_compute(exec, total + orders.len() as u64, 2.0)?;

    let building_orders: HashMap<u64, &Orders> = orders
        .iter()
        .filter(|o| o.o_orderdate < cutoff)
        .filter(|o| {
            customers
                .get(&o.o_custkey)
                .map(|c| c.c_mktsegment == 1)
                .unwrap_or(false)
        })
        .map(|o| (o.o_orderkey, o))
        .collect();
    let mut revenue: BTreeMap<u64, f64> = BTreeMap::new();
    for l in all(scans) {
        if l.l_shipdate > cutoff && building_orders.contains_key(&l.l_orderkey) {
            *revenue.entry(l.l_orderkey).or_default() +=
                money(l.l_extendedprice) * (1.0 - l.l_discount as f64 / 100.0);
        }
    }
    let mut top: Vec<f64> = revenue.values().copied().collect();
    top.sort_by(|a, b| b.partial_cmp(a).unwrap());
    exec.charge_coordinator(revenue.len() as u64, 0.5);
    Ok(top.iter().take(10).sum())
}

/// q4: order priority checking — Orders index on orderdate, semi-join LineItem.
fn q4(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let lo = date(1993, 180);
    let hi = lo + 92;
    let orders = orders_by_orderdate(exec, t, lo, hi)?;
    let scans = scan_lineitem(exec, t, false)?;
    let total: u64 = scans.iter().map(|(_, v)| v.len() as u64).sum();
    charge_balanced_compute(exec, total, 0.8)?;
    let late: BTreeSet<u64> = all(scans)
        .iter()
        .filter(|l| l.l_commitdate < l.l_receiptdate)
        .map(|l| l.l_orderkey)
        .collect();
    let mut counts = [0u64; 5];
    for o in &orders {
        if late.contains(&o.o_orderkey) {
            counts[(o.o_orderpriority % 5) as usize] += 1;
        }
    }
    exec.charge_coordinator(5, 0.1);
    Ok(counts.iter().map(|&c| c as f64).sum())
}

/// q5: local supplier volume — 6-way join restricted to one region and year.
fn q5(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let lo = date(1994, 0);
    let hi = date(1995, 0);
    let customers = customers_by_key(exec, t)?;
    let suppliers = all(scan_decoded(exec, t.supplier, false, |v| {
        Supplier::decode(v)
    })?);
    let nations = all(scan_decoded(exec, t.nation, false, Nation::decode)?);
    let orders = orders_by_orderdate(exec, t, lo, hi)?;
    let scans = scan_lineitem(exec, t, false)?;
    let total: u64 = scans.iter().map(|(_, v)| v.len() as u64).sum();
    charge_balanced_compute(exec, total + orders.len() as u64, 2.5)?;

    let asia: BTreeSet<u64> = nations
        .iter()
        .filter(|n| n.n_regionkey == 2)
        .map(|n| n.n_nationkey)
        .collect();
    let supp_nation: HashMap<u64, u64> = suppliers
        .iter()
        .map(|s| (s.s_suppkey, s.s_nationkey))
        .collect();
    let order_cust_nation: HashMap<u64, u64> = orders
        .iter()
        .filter_map(|o| {
            customers
                .get(&o.o_custkey)
                .map(|c| (o.o_orderkey, c.c_nationkey))
        })
        .collect();
    let mut per_nation: BTreeMap<u64, f64> = BTreeMap::new();
    for l in all(scans) {
        let Some(&cust_nation) = order_cust_nation.get(&l.l_orderkey) else {
            continue;
        };
        let Some(&supp_nation_key) = supp_nation.get(&l.l_suppkey) else {
            continue;
        };
        if cust_nation == supp_nation_key && asia.contains(&cust_nation) {
            *per_nation.entry(cust_nation).or_default() +=
                money(l.l_extendedprice) * (1.0 - l.l_discount as f64 / 100.0);
        }
    }
    exec.charge_coordinator(per_nation.len() as u64, 0.3);
    Ok(per_nation.values().sum())
}

/// q6: revenue forecast — LineItem index range on shipdate (index-only style).
fn q6(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let lo = date(1994, 0);
    let hi = date(1995, 0);
    let lines = lineitems_by_shipdate(exec, t, lo, hi)?;
    charge_balanced_compute(exec, lines.len() as u64, 0.3)?;
    let revenue: f64 = lines
        .iter()
        .filter(|l| (5..=7).contains(&l.l_discount) && l.l_quantity < 24)
        .map(|l| money(l.l_extendedprice) * l.l_discount as f64 / 100.0)
        .sum();
    exec.charge_coordinator(1, 0.1);
    Ok(revenue)
}

/// q7: volume shipping between two nations over two years.
fn q7(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let customers = customers_by_key(exec, t)?;
    let suppliers = all(scan_decoded(exec, t.supplier, false, |v| {
        Supplier::decode(v)
    })?);
    let orders = all(scan_orders(exec, t)?);
    let scans = scan_lineitem(exec, t, false)?;
    let total: u64 = scans.iter().map(|(_, v)| v.len() as u64).sum();
    charge_balanced_compute(exec, total + orders.len() as u64, 2.0)?;

    let supp_nation: HashMap<u64, u64> = suppliers
        .iter()
        .map(|s| (s.s_suppkey, s.s_nationkey))
        .collect();
    let order_cust: HashMap<u64, u64> =
        orders.iter().map(|o| (o.o_orderkey, o.o_custkey)).collect();
    let lo = date(1995, 0);
    let mut volume = 0.0;
    for l in all(scans) {
        if l.l_shipdate < lo {
            continue;
        }
        let Some(&sn) = supp_nation.get(&l.l_suppkey) else {
            continue;
        };
        let Some(custkey) = order_cust.get(&l.l_orderkey) else {
            continue;
        };
        let Some(c) = customers.get(custkey) else {
            continue;
        };
        if (sn == 6 && c.c_nationkey == 7) || (sn == 7 && c.c_nationkey == 6) {
            volume += money(l.l_extendedprice) * (1.0 - l.l_discount as f64 / 100.0);
        }
    }
    exec.charge_coordinator(4, 0.1);
    Ok(volume)
}

/// q8: national market share within a region for a part type.
fn q8(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let customers = customers_by_key(exec, t)?;
    let suppliers = all(scan_decoded(exec, t.supplier, false, |v| {
        Supplier::decode(v)
    })?);
    let nations = all(scan_decoded(exec, t.nation, false, Nation::decode)?);
    let parts = all(scan_decoded(exec, t.part, false, Part::decode)?);
    let orders = orders_by_orderdate(exec, t, date(1995, 0), date(1997, 0))?;
    let scans = scan_lineitem(exec, t, false)?;
    let total: u64 = scans.iter().map(|(_, v)| v.len() as u64).sum();
    charge_balanced_compute(exec, total + orders.len() as u64, 2.5)?;

    let america: BTreeSet<u64> = nations
        .iter()
        .filter(|n| n.n_regionkey == 1)
        .map(|n| n.n_nationkey)
        .collect();
    let wanted_parts: BTreeSet<u64> = parts
        .iter()
        .filter(|p| p.p_type % 10 == 3)
        .map(|p| p.p_partkey)
        .collect();
    let supp_nation: HashMap<u64, u64> = suppliers
        .iter()
        .map(|s| (s.s_suppkey, s.s_nationkey))
        .collect();
    let order_in_scope: HashMap<u64, bool> = orders
        .iter()
        .map(|o| {
            let in_region = customers
                .get(&o.o_custkey)
                .map(|c| america.contains(&c.c_nationkey))
                .unwrap_or(false);
            (o.o_orderkey, in_region)
        })
        .collect();
    let mut national = 0.0;
    let mut total_volume = 0.0;
    for l in all(scans) {
        if !wanted_parts.contains(&l.l_partkey) {
            continue;
        }
        if order_in_scope.get(&l.l_orderkey).copied() != Some(true) {
            continue;
        }
        let v = money(l.l_extendedprice) * (1.0 - l.l_discount as f64 / 100.0);
        total_volume += v;
        if supp_nation.get(&l.l_suppkey) == Some(&5) {
            national += v;
        }
    }
    exec.charge_coordinator(2, 0.1);
    Ok(if total_volume == 0.0 {
        0.0
    } else {
        national / total_volume
    })
}

/// q9: product type profit measure — scans LineItem and joins part/partsupp.
fn q9(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let parts = all(scan_decoded(exec, t.part, false, Part::decode)?);
    let partsupp = all(scan_decoded(exec, t.partsupp, false, |v| {
        PartSupp::decode(v)
    })?);
    let suppliers = all(scan_decoded(exec, t.supplier, false, |v| {
        Supplier::decode(v)
    })?);
    let orders = all(scan_orders(exec, t)?);
    let scans = scan_lineitem(exec, t, false)?;
    let total: u64 = scans.iter().map(|(_, v)| v.len() as u64).sum();
    charge_balanced_compute(exec, total + partsupp.len() as u64, 3.0)?;

    let green_parts: BTreeSet<u64> = parts
        .iter()
        .filter(|p| p.p_type % 7 == 0)
        .map(|p| p.p_partkey)
        .collect();
    let supply_cost: HashMap<(u64, u64), u64> = partsupp
        .iter()
        .map(|ps| ((ps.ps_partkey, ps.ps_suppkey), ps.ps_supplycost))
        .collect();
    let supp_nation: HashMap<u64, u64> = suppliers
        .iter()
        .map(|s| (s.s_suppkey, s.s_nationkey))
        .collect();
    let order_year: HashMap<u64, u64> = orders
        .iter()
        .map(|o| (o.o_orderkey, o.o_orderdate / 365))
        .collect();
    let mut profit: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    for l in all(scans) {
        if !green_parts.contains(&l.l_partkey) {
            continue;
        }
        let nation = supp_nation.get(&l.l_suppkey).copied().unwrap_or(0);
        let year = order_year.get(&l.l_orderkey).copied().unwrap_or(0);
        let cost = supply_cost
            .get(&(l.l_partkey, l.l_suppkey))
            .copied()
            .unwrap_or(0);
        let amount = money(l.l_extendedprice) * (1.0 - l.l_discount as f64 / 100.0)
            - money(cost) * l.l_quantity as f64;
        *profit.entry((nation, year)).or_default() += amount;
    }
    exec.charge_coordinator(profit.len() as u64, 0.3);
    Ok(profit.values().sum())
}

/// q10: returned item reporting — customers who returned items in a quarter.
fn q10(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let customers = customers_by_key(exec, t)?;
    let orders = orders_by_orderdate(exec, t, date(1993, 270), date(1994, 0))?;
    let scans = scan_lineitem(exec, t, false)?;
    let total: u64 = scans.iter().map(|(_, v)| v.len() as u64).sum();
    charge_balanced_compute(exec, total + orders.len() as u64, 1.5)?;

    let order_cust: HashMap<u64, u64> =
        orders.iter().map(|o| (o.o_orderkey, o.o_custkey)).collect();
    let mut revenue: BTreeMap<u64, f64> = BTreeMap::new();
    for l in all(scans) {
        if l.l_returnflag != 1 {
            continue;
        }
        if let Some(&cust) = order_cust.get(&l.l_orderkey) {
            if customers.contains_key(&cust) {
                *revenue.entry(cust).or_default() +=
                    money(l.l_extendedprice) * (1.0 - l.l_discount as f64 / 100.0);
            }
        }
    }
    let mut top: Vec<f64> = revenue.values().copied().collect();
    top.sort_by(|a, b| b.partial_cmp(a).unwrap());
    exec.charge_coordinator(revenue.len() as u64, 0.3);
    Ok(top.iter().take(20).sum())
}

/// q11: important stock identification — partsupp value grouped by part.
fn q11(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let partsupp = all(scan_decoded(exec, t.partsupp, false, |v| {
        PartSupp::decode(v)
    })?);
    let suppliers = all(scan_decoded(exec, t.supplier, false, |v| {
        Supplier::decode(v)
    })?);
    charge_balanced_compute(exec, partsupp.len() as u64, 1.0)?;
    let german: BTreeSet<u64> = suppliers
        .iter()
        .filter(|s| s.s_nationkey == 7)
        .map(|s| s.s_suppkey)
        .collect();
    let mut value: BTreeMap<u64, f64> = BTreeMap::new();
    let mut total_value = 0.0;
    for ps in &partsupp {
        if german.contains(&ps.ps_suppkey) {
            let v = money(ps.ps_supplycost) * ps.ps_availqty as f64;
            *value.entry(ps.ps_partkey).or_default() += v;
            total_value += v;
        }
    }
    let threshold = total_value * 0.001;
    exec.charge_coordinator(value.len() as u64, 0.3);
    Ok(value.values().filter(|&&v| v > threshold).sum())
}

/// q12: shipping modes and order priority — LineItem scan joined to Orders.
fn q12(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let orders = all(scan_orders(exec, t)?);
    let scans = scan_lineitem(exec, t, false)?;
    let total: u64 = scans.iter().map(|(_, v)| v.len() as u64).sum();
    charge_balanced_compute(exec, total + orders.len() as u64, 1.0)?;
    let order_priority: HashMap<u64, u64> = orders
        .iter()
        .map(|o| (o.o_orderkey, o.o_orderpriority))
        .collect();
    let lo = date(1994, 0);
    let hi = date(1995, 0);
    let mut high = 0u64;
    let mut low = 0u64;
    for l in all(scans) {
        if (l.l_shipmode == 3 || l.l_shipmode == 5)
            && l.l_commitdate < l.l_receiptdate
            && l.l_shipdate < l.l_commitdate
            && (lo..hi).contains(&l.l_receiptdate)
        {
            match order_priority.get(&l.l_orderkey) {
                Some(0) | Some(1) => high += 1,
                Some(_) => low += 1,
                None => {}
            }
        }
    }
    exec.charge_coordinator(2, 0.1);
    Ok((high + low) as f64)
}

/// q13: customer distribution — orders per customer histogram.
fn q13(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let customers = customers_by_key(exec, t)?;
    let orders = all(scan_orders(exec, t)?);
    charge_balanced_compute(exec, (orders.len() + customers.len()) as u64, 1.5)?;
    let mut per_customer: BTreeMap<u64, u64> = customers.keys().map(|k| (*k, 0)).collect();
    for o in &orders {
        if o.o_clerk % 100 != 13 {
            if let Some(c) = per_customer.get_mut(&o.o_custkey) {
                *c += 1;
            }
        }
    }
    let mut histogram: BTreeMap<u64, u64> = BTreeMap::new();
    for count in per_customer.values() {
        *histogram.entry(*count).or_default() += 1;
    }
    exec.charge_coordinator(histogram.len() as u64, 0.2);
    Ok(histogram.iter().map(|(k, v)| (k * v) as f64).sum())
}

/// q14: promotion effect — LineItem shipdate month via the index, join Part.
fn q14(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let parts = all(scan_decoded(exec, t.part, false, Part::decode)?);
    let lines = lineitems_by_shipdate(exec, t, date(1995, 240), date(1995, 270))?;
    charge_balanced_compute(exec, (lines.len() + parts.len()) as u64, 0.8)?;
    let promo_parts: BTreeSet<u64> = parts
        .iter()
        .filter(|p| p.p_type / 30 == 4)
        .map(|p| p.p_partkey)
        .collect();
    let mut promo = 0.0;
    let mut total = 0.0;
    for l in &lines {
        let v = money(l.l_extendedprice) * (1.0 - l.l_discount as f64 / 100.0);
        total += v;
        if promo_parts.contains(&l.l_partkey) {
            promo += v;
        }
    }
    exec.charge_coordinator(1, 0.1);
    Ok(if total == 0.0 {
        0.0
    } else {
        100.0 * promo / total
    })
}

/// q15: top supplier — revenue per supplier over one quarter (index range).
fn q15(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let lines = lineitems_by_shipdate(exec, t, date(1996, 0), date(1996, 90))?;
    charge_balanced_compute(exec, lines.len() as u64, 0.5)?;
    let mut revenue: BTreeMap<u64, f64> = BTreeMap::new();
    for l in &lines {
        *revenue.entry(l.l_suppkey).or_default() +=
            money(l.l_extendedprice) * (1.0 - l.l_discount as f64 / 100.0);
    }
    exec.charge_coordinator(revenue.len() as u64, 0.2);
    Ok(revenue.values().fold(0.0_f64, |a, &b| a.max(b)))
}

/// q16: parts/supplier relationship — partsupp ⋈ part with exclusions.
fn q16(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let parts = all(scan_decoded(exec, t.part, false, Part::decode)?);
    let partsupp = all(scan_decoded(exec, t.partsupp, false, |v| {
        PartSupp::decode(v)
    })?);
    let suppliers = all(scan_decoded(exec, t.supplier, false, |v| {
        Supplier::decode(v)
    })?);
    charge_balanced_compute(exec, partsupp.len() as u64, 1.0)?;
    let complaints: BTreeSet<u64> = suppliers
        .iter()
        .filter(|s| s.s_complaint == 1)
        .map(|s| s.s_suppkey)
        .collect();
    let wanted: HashMap<u64, (u64, u64, u64)> = parts
        .iter()
        .filter(|p| {
            p.p_brand != 12
                && p.p_type % 15 != 0
                && [1, 9, 14, 19, 23, 36, 45, 49].contains(&p.p_size)
        })
        .map(|p| (p.p_partkey, (p.p_brand, p.p_type, p.p_size)))
        .collect();
    let mut supplier_cnt: BTreeMap<(u64, u64, u64), BTreeSet<u64>> = BTreeMap::new();
    for ps in &partsupp {
        if complaints.contains(&ps.ps_suppkey) {
            continue;
        }
        if let Some(&group) = wanted.get(&ps.ps_partkey) {
            supplier_cnt.entry(group).or_default().insert(ps.ps_suppkey);
        }
    }
    exec.charge_coordinator(supplier_cnt.len() as u64, 0.3);
    Ok(supplier_cnt.values().map(|s| s.len() as f64).sum())
}

/// q17: small-quantity-order revenue — full LineItem scan, per-part averages.
fn q17(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let parts = all(scan_decoded(exec, t.part, false, Part::decode)?);
    let scans = scan_lineitem(exec, t, false)?;
    let total: u64 = scans.iter().map(|(_, v)| v.len() as u64).sum();
    // q17 re-aggregates LineItem per part: relatively light compute compared
    // to its scan, which is why it is sensitive to scan imbalance.
    charge_balanced_compute(exec, total, 0.5)?;
    let wanted: BTreeSet<u64> = parts
        .iter()
        .filter(|p| p.p_brand == 23 && p.p_container == 17)
        .map(|p| p.p_partkey)
        .collect();
    let lines = all(scans);
    let mut per_part: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for l in &lines {
        let e = per_part.entry(l.l_partkey).or_default();
        e.0 += l.l_quantity;
        e.1 += 1;
    }
    let mut revenue = 0.0;
    for l in &lines {
        if !wanted.contains(&l.l_partkey) {
            continue;
        }
        let (sum, cnt) = per_part[&l.l_partkey];
        let avg = sum as f64 / cnt as f64;
        if (l.l_quantity as f64) < 0.2 * avg {
            revenue += money(l.l_extendedprice);
        }
    }
    exec.charge_coordinator(1, 0.1);
    Ok(revenue / 7.0)
}

/// q18: large-volume customers — group LineItem by the primary-key prefix
/// (`l_orderkey`), which requires primary-key-ordered scans.
fn q18(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let customers = customers_by_key(exec, t)?;
    let orders = all(scan_orders(exec, t)?);
    // The group-by on the primary-key prefix requires ordered scans: the
    // bucketed LSM-tree must merge-sort its buckets here (Section IV).
    let scans = scan_lineitem(exec, t, true)?;
    let total: u64 = scans.iter().map(|(_, v)| v.len() as u64).sum();
    charge_balanced_compute(exec, total, 0.6)?;
    let mut qty_per_order: BTreeMap<u64, u64> = BTreeMap::new();
    for l in all(scans) {
        *qty_per_order.entry(l.l_orderkey).or_default() += l.l_quantity;
    }
    let threshold = 150;
    let order_by_key: HashMap<u64, &Orders> = orders.iter().map(|o| (o.o_orderkey, o)).collect();
    let mut result = 0.0;
    for (orderkey, qty) in &qty_per_order {
        if *qty > threshold {
            if let Some(o) = order_by_key.get(orderkey) {
                if customers.contains_key(&o.o_custkey) {
                    result += money(o.o_totalprice);
                }
            }
        }
    }
    exec.charge_coordinator(qty_per_order.len() as u64, 0.2);
    Ok(result)
}

/// q19: discounted revenue — LineItem ⋈ Part with OR-ed predicates.
fn q19(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let parts = all(scan_decoded(exec, t.part, false, Part::decode)?);
    let scans = scan_lineitem(exec, t, false)?;
    let total: u64 = scans.iter().map(|(_, v)| v.len() as u64).sum();
    charge_balanced_compute(exec, total, 0.7)?;
    let part_by_key: HashMap<u64, &Part> = parts.iter().map(|p| (p.p_partkey, p)).collect();
    let mut revenue = 0.0;
    for l in all(scans) {
        let Some(p) = part_by_key.get(&l.l_partkey) else {
            continue;
        };
        let matched = (p.p_brand == 12 && l.l_quantity <= 11 && p.p_container < 10)
            || (p.p_brand == 23 && (10..=20).contains(&l.l_quantity) && p.p_container < 20)
            || (p.p_brand == 34 % 25 && (20..=30).contains(&l.l_quantity));
        if matched && l.l_shipinstruct == 0 && l.l_shipmode <= 1 {
            revenue += money(l.l_extendedprice) * (1.0 - l.l_discount as f64 / 100.0);
        }
    }
    exec.charge_coordinator(1, 0.1);
    Ok(revenue)
}

/// q20: potential part promotion — suppliers with excess stock of a part.
fn q20(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let parts = all(scan_decoded(exec, t.part, false, Part::decode)?);
    let partsupp = all(scan_decoded(exec, t.partsupp, false, |v| {
        PartSupp::decode(v)
    })?);
    let suppliers = all(scan_decoded(exec, t.supplier, false, |v| {
        Supplier::decode(v)
    })?);
    let lines = lineitems_by_shipdate(exec, t, date(1994, 0), date(1995, 0))?;
    charge_balanced_compute(exec, (lines.len() + partsupp.len()) as u64, 1.2)?;
    let forest_parts: BTreeSet<u64> = parts
        .iter()
        .filter(|p| p.p_type % 11 == 2)
        .map(|p| p.p_partkey)
        .collect();
    let mut shipped: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for l in &lines {
        *shipped.entry((l.l_partkey, l.l_suppkey)).or_default() += l.l_quantity;
    }
    let mut qualified: BTreeSet<u64> = BTreeSet::new();
    for ps in &partsupp {
        if !forest_parts.contains(&ps.ps_partkey) {
            continue;
        }
        let half_shipped = shipped
            .get(&(ps.ps_partkey, ps.ps_suppkey))
            .copied()
            .unwrap_or(0) as f64
            * 0.5;
        if ps.ps_availqty as f64 > half_shipped && half_shipped > 0.0 {
            qualified.insert(ps.ps_suppkey);
        }
    }
    let canada: usize = suppliers
        .iter()
        .filter(|s| s.s_nationkey == 3 && qualified.contains(&s.s_suppkey))
        .count();
    exec.charge_coordinator(qualified.len() as u64, 0.2);
    Ok(canada as f64)
}

/// q21: suppliers who kept orders waiting — LineItem is effectively scanned
/// multiple times (self-joins per order), making it the most scan-heavy query.
fn q21(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let suppliers = all(scan_decoded(exec, t.supplier, false, |v| {
        Supplier::decode(v)
    })?);
    let orders = all(scan_orders(exec, t)?);
    // First pass over LineItem.
    let first = scan_lineitem(exec, t, false)?;
    // Second pass (the self-join side), scanned again as the paper notes.
    let second = scan_lineitem(exec, t, false)?;
    let total: u64 = first.iter().map(|(_, v)| v.len() as u64).sum();
    charge_balanced_compute(exec, total, 1.0)?;

    let f_orders: BTreeSet<u64> = orders
        .iter()
        .filter(|o| o.o_orderstatus == 1)
        .map(|o| o.o_orderkey)
        .collect();
    let saudi: BTreeSet<u64> = suppliers
        .iter()
        .filter(|s| s.s_nationkey == 20)
        .map(|s| s.s_suppkey)
        .collect();
    // suppliers per order, and late suppliers per order
    let mut suppliers_per_order: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for l in all(second) {
        suppliers_per_order
            .entry(l.l_orderkey)
            .or_default()
            .insert(l.l_suppkey);
    }
    let mut waiting: BTreeMap<u64, u64> = BTreeMap::new();
    for l in all(first) {
        if !f_orders.contains(&l.l_orderkey) || l.l_receiptdate <= l.l_commitdate {
            continue;
        }
        let multi = suppliers_per_order
            .get(&l.l_orderkey)
            .map(|s| s.len() > 1)
            .unwrap_or(false);
        if multi && saudi.contains(&l.l_suppkey) {
            *waiting.entry(l.l_suppkey).or_default() += 1;
        }
    }
    exec.charge_coordinator(waiting.len() as u64, 0.2);
    Ok(waiting.values().map(|&c| c as f64).sum())
}

/// q22: global sales opportunity — customers with no orders and good balance.
fn q22(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let customers = all(scan_decoded(exec, t.customer, false, |v| {
        Customer::decode(v)
    })?);
    let orders = all(scan_orders(exec, t)?);
    charge_balanced_compute(exec, (customers.len() + orders.len()) as u64, 1.0)?;
    let with_orders: BTreeSet<u64> = orders.iter().map(|o| o.o_custkey).collect();
    let wanted_cc: BTreeSet<u64> = [13, 31, 23, 29, 30, 18, 17].into_iter().collect();
    let in_scope: Vec<&Customer> = customers
        .iter()
        .filter(|c| wanted_cc.contains(&c.c_phone_cc))
        .collect();
    let positive: Vec<&&Customer> = in_scope.iter().filter(|c| c.c_acctbal > 0).collect();
    let avg = if positive.is_empty() {
        0.0
    } else {
        positive.iter().map(|c| c.c_acctbal as f64).sum::<f64>() / positive.len() as f64
    };
    let result: f64 = in_scope
        .iter()
        .filter(|c| c.c_acctbal as f64 > avg && !with_orders.contains(&c.c_custkey))
        .map(|c| money(c.c_acctbal))
        .sum();
    exec.charge_coordinator(in_scope.len() as u64, 0.2);
    Ok(result)
}

/// Runs TPC-H query `n` (1-based) and returns its scalar result.
pub fn run_query(n: usize, exec: &mut QueryExecutor<'_>, tables: &TpchTables) -> QResult {
    match n {
        1 => q1(exec, tables),
        2 => q2(exec, tables),
        3 => q3(exec, tables),
        4 => q4(exec, tables),
        5 => q5(exec, tables),
        6 => q6(exec, tables),
        7 => q7(exec, tables),
        8 => q8(exec, tables),
        9 => q9(exec, tables),
        10 => q10(exec, tables),
        11 => q11(exec, tables),
        12 => q12(exec, tables),
        13 => q13(exec, tables),
        14 => q14(exec, tables),
        15 => q15(exec, tables),
        16 => q16(exec, tables),
        17 => q17(exec, tables),
        18 => q18(exec, tables),
        19 => q19(exec, tables),
        20 => q20(exec, tables),
        21 => q21(exec, tables),
        22 => q22(exec, tables),
        _ => Err(ClusterError::Inconsistent(format!(
            "no such TPC-H query: q{n}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TpchScale;
    use crate::loader::load_tpch;
    use dynahash_cluster::Cluster;
    use dynahash_core::Scheme;

    fn run_all(scheme: Scheme) -> Vec<f64> {
        let mut cluster = Cluster::new(2);
        let (tables, _, _) = load_tpch(&mut cluster, scheme, TpchScale::tiny()).unwrap();
        (1..=NUM_QUERIES)
            .map(|n| {
                let mut exec = QueryExecutor::new(&mut cluster);
                let v = run_query(n, &mut exec, &tables).unwrap();
                let report = exec.finish();
                assert!(
                    report.elapsed.as_secs_f64() > 0.0,
                    "q{n} must cost something"
                );
                v
            })
            .collect()
    }

    #[test]
    fn all_queries_run_and_are_deterministic() {
        let a = run_all(Scheme::static_hash_256());
        let b = run_all(Scheme::static_hash_256());
        assert_eq!(a.len(), 22);
        assert_eq!(a, b);
        // at least the broad aggregates must be non-trivial
        assert!(a[0] > 0.0, "q1 revenue must be positive");
        assert!(a[17] >= 0.0);
    }

    #[test]
    fn query_answers_are_scheme_independent() {
        let bucketed = run_all(Scheme::StaticHash { num_buckets: 16 });
        let hashing = run_all(Scheme::Hashing);
        let dyna = run_all(Scheme::dynahash(32 * 1024, 8));
        for n in 0..NUM_QUERIES {
            assert!(
                (bucketed[n] - hashing[n]).abs() < 1e-6,
                "q{} differs between StaticHash and Hashing: {} vs {}",
                n + 1,
                bucketed[n],
                hashing[n]
            );
            assert!(
                (bucketed[n] - dyna[n]).abs() < 1e-6,
                "q{} differs between StaticHash and DynaHash",
                n + 1
            );
        }
    }

    #[test]
    fn traits_cover_all_queries() {
        for n in 1..=NUM_QUERIES {
            let t = query_traits(n);
            assert_eq!(t.number, n);
        }
        assert!(query_traits(18).needs_pk_order);
        assert!(query_traits(18).scan_heavy);
        assert!(query_traits(6).uses_secondary_index);
        assert!(!query_traits(2).scan_heavy);
    }

    #[test]
    fn unknown_query_number_errors() {
        let mut cluster = Cluster::new(1);
        let (tables, _, _) = load_tpch(
            &mut cluster,
            Scheme::Hashing,
            TpchScale {
                orders: 20,
                seed: 1,
            },
        )
        .unwrap();
        let mut exec = QueryExecutor::new(&mut cluster);
        assert!(run_query(23, &mut exec, &tables).is_err());
        assert!(run_query(0, &mut exec, &tables).is_err());
    }
}
