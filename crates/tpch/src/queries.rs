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
//!
//! A query is a sequence of folds over zero-copy row views
//! ([`crate::schema::Table::Row`]): the build side of a join is projected
//! into a [`KeyTable`], the probe side folds into the aggregate the query
//! returns. No program holds a table's rows; each keeps the columns it
//! projects. Every fold walks the partitions in partition order, so each
//! float sum adds up in the sequence the figure golden pinned to the bit.

use std::collections::BTreeMap;

use dynahash_cluster::{in_key_order, ClusterError, DatasetId, KeyTable, QueryExecutor};
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

/// The discounted price of a line.
fn revenue(l: LineItemRow<'_>) -> f64 {
    money(l.l_extendedprice()) * (1.0 - l.l_discount() as f64 / 100.0)
}

/// Two keys as one [`KeyTable`] key, ordered like the pair.
fn pair(a: u64, b: u64) -> u64 {
    debug_assert!(a >> 32 == 0 && b >> 32 == 0);
    a << 32 | b
}

/// How a query reaches the rows of a table.
#[derive(Clone, Copy)]
enum Access {
    /// A full scan, each partition in hash order.
    Scan(DatasetId),
    /// A full scan in primary-key order per partition.
    KeyOrder(DatasetId),
    /// The index-then-fetch plan over `[lo, hi)` of a date index.
    ByDate(DatasetId, &'static str, u64, u64),
}
use Access::{ByDate, KeyOrder, Scan};

/// Folds every row of table `T` reached through `access` into one
/// accumulator, partition after partition in partition order — so a float
/// sum adds up in the same sequence on every run of one layout. Returns the
/// number of rows folded next to the accumulator.
fn fold<T: Table, A: Default>(
    exec: &mut QueryExecutor<'_>,
    access: Access,
    mut step: impl FnMut(&mut A, T::Row<'_>),
) -> Result<(u64, A), ClusterError> {
    let (mut rows, mut acc) = (0, A::default());
    let step = |_: &Key, payload: &[u8]| {
        if let Some(row) = T::row(payload) {
            rows += 1;
            step(&mut acc, row);
        }
    };
    match access {
        Scan(table) => exec.scan_fold(table, false, step)?,
        KeyOrder(table) => exec.scan_fold(table, true, step)?,
        ByDate(table, index, lo, hi) => {
            let (lo, hi) = (Key::from_u64(lo), Key::from_u64(hi));
            exec.index_fetch_fold(table, index, Some(&lo), Some(&hi), step)?
        }
    }
    Ok((rows, acc))
}

/// The build side of a join: the `(key, columns)` tuples `project` keeps of
/// table `T`, as one table. Returns the number of rows read next to it.
fn build<T: Table, V>(
    exec: &mut QueryExecutor<'_>,
    access: Access,
    mut project: impl FnMut(T::Row<'_>) -> Option<(u64, V)>,
) -> Result<(u64, KeyTable<V>), ClusterError> {
    fold::<T, KeyTable<V>>(exec, access, |table, row| table.extend(project(row)))
}

/// The sum of the `k` largest values.
fn top(values: KeyTable<f64>, k: usize) -> f64 {
    let mut values: Vec<f64> = values.into_values().collect();
    values.sort_unstable_by(|a, b| b.total_cmp(a));
    values.iter().take(k).sum()
}

// --------------------------------------------------------------------- q1-q22

/// q1: pricing summary report — full LineItem scan, 8-way group-by.
fn q1(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let cutoff = DATE_RANGE_DAYS - 90;
    let (lines, groups) =
        fold::<LineItem, KeyTable<(u64, u64, f64)>>(exec, Scan(t.lineitem), |groups, l| {
            if l.l_shipdate() <= cutoff {
                let g = groups
                    .entry(pair(l.l_returnflag(), l.l_linestatus()))
                    .or_default();
                g.0 += l.l_quantity();
                g.1 += 1;
                g.2 += revenue(l);
            }
        })?;
    exec.charge_balanced(lines, 1.5)?;
    exec.charge_coordinator(groups.len() as u64, 1.0);
    let groups = in_key_order(groups);
    Ok(groups.iter().map(|(_, g)| g.2 + g.0 as f64).sum())
}

/// q2: minimum-cost supplier — small-table joins over part/partsupp/supplier.
fn q2(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let (_, europe) = build::<Nation, _>(exec, Scan(t.nation), |n| {
        (n.n_regionkey() == 3).then_some((n.n_nationkey(), ()))
    })?;
    let (_, european) = build::<Supplier, _>(exec, Scan(t.supplier), |s| {
        europe
            .contains_key(&s.s_nationkey())
            .then_some((s.s_suppkey(), ()))
    })?;
    let (parts, wanted) = build::<Part, _>(exec, Scan(t.part), |p| {
        (p.p_size() == 15 && p.p_type() % 5 == 0).then_some((p.p_partkey(), ()))
    })?;
    let (partsupps, min_cost) =
        fold::<PartSupp, KeyTable<u64>>(exec, Scan(t.partsupp), |min_cost, ps| {
            if wanted.contains_key(&ps.ps_partkey()) && european.contains_key(&ps.ps_suppkey()) {
                let cost = min_cost.entry(ps.ps_partkey()).or_insert(u64::MAX);
                *cost = (*cost).min(ps.ps_supplycost());
            }
        })?;
    exec.charge_balanced(parts + partsupps, 1.0)?;
    exec.charge_coordinator(min_cost.len() as u64, 0.5);
    let min_cost = in_key_order(min_cost);
    Ok(min_cost.iter().map(|(_, cost)| money(*cost)).sum())
}

/// q3: shipping priority — customer ⋈ orders ⋈ lineitem with date filters.
fn q3(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let cutoff = date(1995, 74);
    let (_, building) = build::<Customer, _>(exec, Scan(t.customer), |c| {
        (c.c_mktsegment() == 1).then_some((c.c_custkey(), ()))
    })?;
    let (orders, open_orders) = build::<Orders, _>(exec, Scan(t.orders), |o| {
        (o.o_orderdate() < cutoff && building.contains_key(&o.o_custkey()))
            .then_some((o.o_orderkey(), ()))
    })?;
    let (lines, by_order) =
        fold::<LineItem, KeyTable<f64>>(exec, Scan(t.lineitem), |by_order, l| {
            if l.l_shipdate() > cutoff && open_orders.contains_key(&l.l_orderkey()) {
                *by_order.entry(l.l_orderkey()).or_default() += revenue(l);
            }
        })?;
    exec.charge_balanced(lines + orders, 2.0)?;
    exec.charge_coordinator(by_order.len() as u64, 0.5);
    Ok(top(by_order, 10))
}

/// q4: order priority checking — Orders index on orderdate, semi-join LineItem.
fn q4(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let lo = date(1993, 180);
    let in_quarter = ByDate(t.orders, ORDERS_INDEX, lo, lo + 92);
    let (_, priority_of) = build::<Orders, _>(exec, in_quarter, |o| {
        Some((o.o_orderkey(), o.o_orderpriority()))
    })?;
    let (lines, late) = fold::<LineItem, KeyTable<()>>(exec, Scan(t.lineitem), |late, l| {
        if l.l_commitdate() < l.l_receiptdate() && priority_of.contains_key(&l.l_orderkey()) {
            late.insert(l.l_orderkey(), ());
        }
    })?;
    exec.charge_balanced(lines, 0.8)?;
    let mut counts = [0u64; 5];
    for order in late.keys() {
        counts[(priority_of[order] % 5) as usize] += 1;
    }
    exec.charge_coordinator(5, 0.1);
    Ok(counts.iter().map(|&c| c as f64).sum())
}

/// q5: local supplier volume — 6-way join restricted to one region and year.
fn q5(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let (_, asia) = build::<Nation, _>(exec, Scan(t.nation), |n| {
        (n.n_regionkey() == 2).then_some((n.n_nationkey(), ()))
    })?;
    let (_, cust_nation) = build::<Customer, _>(exec, Scan(t.customer), |c| {
        asia.contains_key(&c.c_nationkey())
            .then_some((c.c_custkey(), c.c_nationkey()))
    })?;
    let (_, supp_nation) = build::<Supplier, _>(exec, Scan(t.supplier), |s| {
        Some((s.s_suppkey(), s.s_nationkey()))
    })?;
    let in_year = ByDate(t.orders, ORDERS_INDEX, date(1994, 0), date(1995, 0));
    let (orders, order_nation) = build::<Orders, _>(exec, in_year, |o| {
        let nation = cust_nation.get(&o.o_custkey())?;
        Some((o.o_orderkey(), *nation))
    })?;
    let (lines, per_nation) =
        fold::<LineItem, KeyTable<f64>>(exec, Scan(t.lineitem), |per_nation, l| {
            if let Some(nation) = order_nation.get(&l.l_orderkey()) {
                if supp_nation.get(&l.l_suppkey()) == Some(nation) {
                    *per_nation.entry(*nation).or_default() += revenue(l);
                }
            }
        })?;
    exec.charge_balanced(lines + orders, 2.5)?;
    exec.charge_coordinator(per_nation.len() as u64, 0.3);
    Ok(in_key_order(per_nation).iter().map(|(_, v)| v).sum())
}

/// q6: revenue forecast — LineItem index range on shipdate (index-only style).
fn q6(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let in_year = ByDate(t.lineitem, LINEITEM_INDEX, date(1994, 0), date(1995, 0));
    let (lines, forecast) = fold::<LineItem, Vec<f64>>(exec, in_year, |forecast, l| {
        if (5..=7).contains(&l.l_discount()) && l.l_quantity() < 24 {
            forecast.push(money(l.l_extendedprice()) * l.l_discount() as f64 / 100.0);
        }
    })?;
    exec.charge_balanced(lines, 0.3)?;
    exec.charge_coordinator(1, 0.1);
    Ok(forecast.iter().sum())
}

/// q7: volume shipping between two nations over two years.
fn q7(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let either = |nation: u64| nation == 6 || nation == 7;
    let (_, cust_nation) = build::<Customer, _>(exec, Scan(t.customer), |c| {
        either(c.c_nationkey()).then_some((c.c_custkey(), c.c_nationkey()))
    })?;
    let (_, supp_nation) = build::<Supplier, _>(exec, Scan(t.supplier), |s| {
        either(s.s_nationkey()).then_some((s.s_suppkey(), s.s_nationkey()))
    })?;
    let (orders, order_nation) = build::<Orders, _>(exec, Scan(t.orders), |o| {
        let nation = cust_nation.get(&o.o_custkey())?;
        Some((o.o_orderkey(), *nation))
    })?;
    let lo = date(1995, 0);
    let (lines, volume) = fold::<LineItem, f64>(exec, Scan(t.lineitem), |volume, l| {
        if l.l_shipdate() < lo {
            return;
        }
        let supplier = supp_nation.get(&l.l_suppkey());
        let customer = order_nation.get(&l.l_orderkey());
        // both are one of the two nations: the trade crosses iff they differ
        if supplier.is_some() && customer.is_some() && supplier != customer {
            *volume += revenue(l);
        }
    })?;
    exec.charge_balanced(lines + orders, 2.0)?;
    exec.charge_coordinator(4, 0.1);
    Ok(volume)
}

/// q8: national market share within a region for a part type.
fn q8(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let (_, america) = build::<Nation, _>(exec, Scan(t.nation), |n| {
        (n.n_regionkey() == 1).then_some((n.n_nationkey(), ()))
    })?;
    let (_, american) = build::<Customer, _>(exec, Scan(t.customer), |c| {
        america
            .contains_key(&c.c_nationkey())
            .then_some((c.c_custkey(), ()))
    })?;
    let (_, national) = build::<Supplier, _>(exec, Scan(t.supplier), |s| {
        (s.s_nationkey() == 5).then_some((s.s_suppkey(), ()))
    })?;
    let (_, wanted) = build::<Part, _>(exec, Scan(t.part), |p| {
        (p.p_type() % 10 == 3).then_some((p.p_partkey(), ()))
    })?;
    let in_years = ByDate(t.orders, ORDERS_INDEX, date(1995, 0), date(1997, 0));
    let (orders, in_scope) = build::<Orders, _>(exec, in_years, |o| {
        american
            .contains_key(&o.o_custkey())
            .then_some((o.o_orderkey(), ()))
    })?;
    let (lines, (share, volume)) =
        fold::<LineItem, (f64, f64)>(exec, Scan(t.lineitem), |(share, volume), l| {
            if wanted.contains_key(&l.l_partkey()) && in_scope.contains_key(&l.l_orderkey()) {
                let v = revenue(l);
                *volume += v;
                if national.contains_key(&l.l_suppkey()) {
                    *share += v;
                }
            }
        })?;
    exec.charge_balanced(lines + orders, 2.5)?;
    exec.charge_coordinator(2, 0.1);
    Ok(if volume == 0.0 { 0.0 } else { share / volume })
}

/// q9: product type profit measure — scans LineItem and joins part/partsupp.
fn q9(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let (_, green) = build::<Part, _>(exec, Scan(t.part), |p| {
        (p.p_type() % 7 == 0).then_some((p.p_partkey(), ()))
    })?;
    let (partsupps, supply_cost) = build::<PartSupp, _>(exec, Scan(t.partsupp), |ps| {
        green
            .contains_key(&ps.ps_partkey())
            .then_some((pair(ps.ps_partkey(), ps.ps_suppkey()), ps.ps_supplycost()))
    })?;
    let (_, supp_nation) = build::<Supplier, _>(exec, Scan(t.supplier), |s| {
        Some((s.s_suppkey(), s.s_nationkey()))
    })?;
    let (_, order_year) = build::<Orders, _>(exec, Scan(t.orders), |o| {
        Some((o.o_orderkey(), o.o_orderdate() / 365))
    })?;
    let (lines, profit) = fold::<LineItem, KeyTable<f64>>(exec, Scan(t.lineitem), |profit, l| {
        if !green.contains_key(&l.l_partkey()) {
            return;
        }
        let nation = supp_nation.get(&l.l_suppkey()).copied().unwrap_or(0);
        let year = order_year.get(&l.l_orderkey()).copied().unwrap_or(0);
        let cost = supply_cost
            .get(&pair(l.l_partkey(), l.l_suppkey()))
            .copied()
            .unwrap_or(0);
        *profit.entry(pair(nation, year)).or_default() +=
            revenue(l) - money(cost) * l.l_quantity() as f64;
    })?;
    exec.charge_balanced(lines + partsupps, 3.0)?;
    exec.charge_coordinator(profit.len() as u64, 0.3);
    Ok(in_key_order(profit).iter().map(|(_, v)| v).sum())
}

/// q10: returned item reporting — customers who returned items in a quarter.
fn q10(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let (_, customers) =
        build::<Customer, _>(exec, Scan(t.customer), |c| Some((c.c_custkey(), ())))?;
    let in_quarter = ByDate(t.orders, ORDERS_INDEX, date(1993, 270), date(1994, 0));
    let (orders, order_cust) = build::<Orders, _>(exec, in_quarter, |o| {
        customers
            .contains_key(&o.o_custkey())
            .then_some((o.o_orderkey(), o.o_custkey()))
    })?;
    let (lines, by_customer) =
        fold::<LineItem, KeyTable<f64>>(exec, Scan(t.lineitem), |by_customer, l| {
            if l.l_returnflag() == 1 {
                if let Some(customer) = order_cust.get(&l.l_orderkey()) {
                    *by_customer.entry(*customer).or_default() += revenue(l);
                }
            }
        })?;
    exec.charge_balanced(lines + orders, 1.5)?;
    exec.charge_coordinator(by_customer.len() as u64, 0.3);
    Ok(top(by_customer, 20))
}

/// q11: important stock identification — partsupp value grouped by part.
fn q11(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let (_, german) = build::<Supplier, _>(exec, Scan(t.supplier), |s| {
        (s.s_nationkey() == 7).then_some((s.s_suppkey(), ()))
    })?;
    let (partsupps, (value, total)) =
        fold::<PartSupp, (KeyTable<f64>, f64)>(exec, Scan(t.partsupp), |(value, total), ps| {
            if german.contains_key(&ps.ps_suppkey()) {
                let v = money(ps.ps_supplycost()) * ps.ps_availqty() as f64;
                *value.entry(ps.ps_partkey()).or_default() += v;
                *total += v;
            }
        })?;
    exec.charge_balanced(partsupps, 1.0)?;
    let threshold = total * 0.001;
    exec.charge_coordinator(value.len() as u64, 0.3);
    let value = in_key_order(value);
    Ok(value
        .iter()
        .map(|(_, v)| *v)
        .filter(|&v| v > threshold)
        .sum())
}

/// q12: shipping modes and order priority — LineItem scan joined to Orders.
fn q12(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let (orders, priority_of) = build::<Orders, _>(exec, Scan(t.orders), |o| {
        Some((o.o_orderkey(), o.o_orderpriority()))
    })?;
    let (lo, hi) = (date(1994, 0), date(1995, 0));
    let (lines, (high, low)) =
        fold::<LineItem, (u64, u64)>(exec, Scan(t.lineitem), |(high, low), l| {
            if (l.l_shipmode() == 3 || l.l_shipmode() == 5)
                && l.l_commitdate() < l.l_receiptdate()
                && l.l_shipdate() < l.l_commitdate()
                && (lo..hi).contains(&l.l_receiptdate())
            {
                match priority_of.get(&l.l_orderkey()) {
                    Some(0) | Some(1) => *high += 1,
                    Some(_) => *low += 1,
                    None => {}
                }
            }
        })?;
    exec.charge_balanced(lines + orders, 1.0)?;
    exec.charge_coordinator(2, 0.1);
    Ok((high + low) as f64)
}

/// q13: customer distribution — orders per customer histogram.
fn q13(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let (customers, mut per_customer) =
        build::<Customer, _>(exec, Scan(t.customer), |c| Some((c.c_custkey(), 0u64)))?;
    let (orders, ()) = fold::<Orders, ()>(exec, Scan(t.orders), |(), o| {
        if o.o_clerk() % 100 != 13 {
            if let Some(count) = per_customer.get_mut(&o.o_custkey()) {
                *count += 1;
            }
        }
    })?;
    exec.charge_balanced(orders + customers, 1.5)?;
    let mut histogram: BTreeMap<u64, u64> = BTreeMap::new();
    for count in per_customer.values() {
        *histogram.entry(*count).or_default() += 1;
    }
    exec.charge_coordinator(histogram.len() as u64, 0.2);
    Ok(histogram.iter().map(|(k, v)| (k * v) as f64).sum())
}

/// q14: promotion effect — LineItem shipdate month via the index, join Part.
fn q14(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let (parts, promo_parts) = build::<Part, _>(exec, Scan(t.part), |p| {
        (p.p_type() / 30 == 4).then_some((p.p_partkey(), ()))
    })?;
    let in_month = ByDate(t.lineitem, LINEITEM_INDEX, date(1995, 240), date(1995, 270));
    let (lines, (promo, total)) =
        fold::<LineItem, (f64, f64)>(exec, in_month, |(promo, total), l| {
            let v = revenue(l);
            *total += v;
            if promo_parts.contains_key(&l.l_partkey()) {
                *promo += v;
            }
        })?;
    exec.charge_balanced(lines + parts, 0.8)?;
    exec.charge_coordinator(1, 0.1);
    Ok(if total == 0.0 {
        0.0
    } else {
        100.0 * promo / total
    })
}

/// q15: top supplier — revenue per supplier over one quarter (index range).
fn q15(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let in_quarter = ByDate(t.lineitem, LINEITEM_INDEX, date(1996, 0), date(1996, 90));
    let (lines, by_supplier) =
        fold::<LineItem, KeyTable<f64>>(exec, in_quarter, |by_supplier, l| {
            *by_supplier.entry(l.l_suppkey()).or_default() += revenue(l)
        })?;
    exec.charge_balanced(lines, 0.5)?;
    exec.charge_coordinator(by_supplier.len() as u64, 0.2);
    Ok(by_supplier.values().fold(0.0_f64, |a, &b| a.max(b)))
}

/// q16: parts/supplier relationship — partsupp ⋈ part with exclusions.
fn q16(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let (_, complaints) = build::<Supplier, _>(exec, Scan(t.supplier), |s| {
        (s.s_complaint() == 1).then_some((s.s_suppkey(), ()))
    })?;
    // a wanted part's group: (brand, type, size), packed
    let (_, group_of) = build::<Part, _>(exec, Scan(t.part), |p| {
        (p.p_brand() != 12
            && p.p_type() % 15 != 0
            && [1, 9, 14, 19, 23, 36, 45, 49].contains(&p.p_size()))
        .then_some((
            p.p_partkey(),
            pair(p.p_brand() << 16 | p.p_type(), p.p_size()),
        ))
    })?;
    let (partsupps, mut offers) =
        fold::<PartSupp, Vec<(u64, u64)>>(exec, Scan(t.partsupp), |offers, ps| {
            if !complaints.contains_key(&ps.ps_suppkey()) {
                if let Some(group) = group_of.get(&ps.ps_partkey()) {
                    offers.push((*group, ps.ps_suppkey()));
                }
            }
        })?;
    exec.charge_balanced(partsupps, 1.0)?;
    // count(distinct supplier) per group: the distinct (group, supplier) pairs
    offers.sort_unstable();
    offers.dedup();
    let suppliers_of: Vec<f64> = (offers.chunk_by(|a, b| a.0 == b.0))
        .map(|group| group.len() as f64)
        .collect();
    exec.charge_coordinator(suppliers_of.len() as u64, 0.3);
    Ok(suppliers_of.iter().sum())
}

/// q17: small-quantity-order revenue — full LineItem scan, per-part averages.
fn q17(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let (_, wanted) = build::<Part, _>(exec, Scan(t.part), |p| {
        (p.p_brand() == 23 && p.p_container() == 17).then_some((p.p_partkey(), ()))
    })?;
    // One scan feeds both passes: the per-part (quantity, lines) aggregate,
    // and the three fields of each wanted line the second pass compares.
    type Passes = (KeyTable<(u64, u64)>, Vec<(u64, u64, u64)>);
    let (lines, (per_part, kept)) =
        fold::<LineItem, Passes>(exec, Scan(t.lineitem), |(per_part, kept), l| {
            if wanted.contains_key(&l.l_partkey()) {
                let part = per_part.entry(l.l_partkey()).or_default();
                part.0 += l.l_quantity();
                part.1 += 1;
                kept.push((l.l_partkey(), l.l_quantity(), l.l_extendedprice()));
            }
        })?;
    // q17 re-aggregates LineItem per part: relatively light compute compared
    // to its scan, which is why it is sensitive to scan imbalance.
    exec.charge_balanced(lines, 0.5)?;
    let mut revenue = 0.0;
    for (part, quantity, price) in kept {
        let (sum, lines) = per_part[&part];
        if (quantity as f64) < 0.2 * (sum as f64 / lines as f64) {
            revenue += money(price);
        }
    }
    exec.charge_coordinator(1, 0.1);
    Ok(revenue / 7.0)
}

/// q18: large-volume customers — group LineItem by the primary-key prefix
/// (`l_orderkey`), which requires primary-key-ordered scans.
fn q18(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let (_, customers) =
        build::<Customer, _>(exec, Scan(t.customer), |c| Some((c.c_custkey(), ())))?;
    let (_, price_of) = build::<Orders, _>(exec, Scan(t.orders), |o| {
        customers
            .contains_key(&o.o_custkey())
            .then_some((o.o_orderkey(), o.o_totalprice()))
    })?;
    // The group-by on the primary-key prefix requires ordered scans: the
    // bucketed LSM-tree must merge-sort its buckets here (Section IV). In
    // key order an order's lines on one partition are adjacent, so each run
    // of them is summed before it touches the table.
    type Runs = (KeyTable<u64>, Option<(u64, u64)>);
    let (lines, (mut quantity_of, last)) = fold::<LineItem, Runs>(
        exec,
        KeyOrder(t.lineitem),
        |(quantity_of, run), l| match run {
            Some((order, quantity)) if *order == l.l_orderkey() => *quantity += l.l_quantity(),
            _ => {
                if let Some((order, quantity)) = run.replace((l.l_orderkey(), l.l_quantity())) {
                    *quantity_of.entry(order).or_default() += quantity;
                }
            }
        },
    )?;
    if let Some((order, quantity)) = last {
        *quantity_of.entry(order).or_default() += quantity;
    }
    exec.charge_balanced(lines, 0.6)?;
    exec.charge_coordinator(quantity_of.len() as u64, 0.2);
    let threshold = 150;
    let mut large: Vec<(u64, u64)> = (quantity_of.iter())
        .filter(|(_, quantity)| **quantity > threshold)
        .filter_map(|(order, _)| Some((*order, *price_of.get(order)?)))
        .collect();
    large.sort_unstable();
    Ok(large
        .iter()
        .fold(0.0, |sum, (_, price)| sum + money(*price)))
}

/// q19: discounted revenue — LineItem ⋈ Part with OR-ed predicates.
fn q19(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let (_, part_of) = build::<Part, _>(exec, Scan(t.part), |p| {
        Some((p.p_partkey(), (p.p_brand(), p.p_container())))
    })?;
    let (lines, discounted) = fold::<LineItem, f64>(exec, Scan(t.lineitem), |sum, l| {
        if l.l_shipinstruct() != 0 || l.l_shipmode() > 1 {
            return;
        }
        let Some(&(brand, container)) = part_of.get(&l.l_partkey()) else {
            return;
        };
        let quantity = l.l_quantity();
        if (brand == 12 && quantity <= 11 && container < 10)
            || (brand == 23 && (10..=20).contains(&quantity) && container < 20)
            || (brand == 34 % 25 && (20..=30).contains(&quantity))
        {
            *sum += revenue(l);
        }
    })?;
    exec.charge_balanced(lines, 0.7)?;
    exec.charge_coordinator(1, 0.1);
    Ok(discounted)
}

/// q20: potential part promotion — suppliers with excess stock of a part.
fn q20(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let (_, forest) = build::<Part, _>(exec, Scan(t.part), |p| {
        (p.p_type() % 11 == 2).then_some((p.p_partkey(), ()))
    })?;
    let in_year = ByDate(t.lineitem, LINEITEM_INDEX, date(1994, 0), date(1995, 0));
    let (lines, shipped) = fold::<LineItem, KeyTable<u64>>(exec, in_year, |shipped, l| {
        if forest.contains_key(&l.l_partkey()) {
            *shipped
                .entry(pair(l.l_partkey(), l.l_suppkey()))
                .or_default() += l.l_quantity();
        }
    })?;
    // only forest parts have a shipped quantity, so the lookup is the filter
    let (partsupps, qualified) =
        fold::<PartSupp, KeyTable<()>>(exec, Scan(t.partsupp), |qualified, ps| {
            if let Some(shipped) = shipped.get(&pair(ps.ps_partkey(), ps.ps_suppkey())) {
                let half_shipped = *shipped as f64 * 0.5;
                if ps.ps_availqty() as f64 > half_shipped && half_shipped > 0.0 {
                    qualified.insert(ps.ps_suppkey(), ());
                }
            }
        })?;
    exec.charge_balanced(lines + partsupps, 1.2)?;
    let (_, canadian) = fold::<Supplier, usize>(exec, Scan(t.supplier), |count, s| {
        if s.s_nationkey() == 3 && qualified.contains_key(&s.s_suppkey()) {
            *count += 1;
        }
    })?;
    exec.charge_coordinator(qualified.len() as u64, 0.2);
    Ok(canadian as f64)
}

/// q21: suppliers who kept orders waiting — LineItem is effectively scanned
/// multiple times (self-joins per order), making it the most scan-heavy query.
fn q21(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let (_, saudi) = build::<Supplier, _>(exec, Scan(t.supplier), |s| {
        (s.s_nationkey() == 20).then_some((s.s_suppkey(), ()))
    })?;
    let (_, f_orders) = build::<Orders, _>(exec, Scan(t.orders), |o| {
        (o.o_orderstatus() == 1).then_some((o.o_orderkey(), ()))
    })?;
    // First pass: the (order, supplier) of every line that kept an 'F' order
    // waiting on a Saudi supplier — a hundredth of the table.
    let (lines, waiting_lines) =
        fold::<LineItem, Vec<(u64, u64)>>(exec, Scan(t.lineitem), |kept, l| {
            if l.l_receiptdate() > l.l_commitdate()
                && saudi.contains_key(&l.l_suppkey())
                && f_orders.contains_key(&l.l_orderkey())
            {
                kept.push((l.l_orderkey(), l.l_suppkey()));
            }
        })?;
    // Second pass (the self-join side, scanned again as the paper notes):
    // whether those orders name any supplier besides the one seen first.
    let mut suppliers_of: KeyTable<(u64, bool)> = (waiting_lines.iter())
        .map(|(order, supplier)| (*order, (*supplier, false)))
        .collect();
    fold::<LineItem, ()>(exec, Scan(t.lineitem), |(), l| {
        if let Some((first, several)) = suppliers_of.get_mut(&l.l_orderkey()) {
            *several |= *first != l.l_suppkey();
        }
    })?;
    exec.charge_balanced(lines, 1.0)?;
    let mut waiting = KeyTable::<u64>::default();
    for (order, supplier) in waiting_lines {
        if suppliers_of[&order].1 {
            *waiting.entry(supplier).or_default() += 1;
        }
    }
    exec.charge_coordinator(waiting.len() as u64, 0.2);
    Ok(waiting.values().map(|&c| c as f64).sum())
}

/// q22: global sales opportunity — customers with no orders and good balance.
fn q22(exec: &mut QueryExecutor<'_>, t: &TpchTables) -> QResult {
    let wanted_cc = [13, 31, 23, 29, 30, 18, 17];
    let (customers, in_scope) =
        fold::<Customer, Vec<(u64, u64)>>(exec, Scan(t.customer), |in_scope, c| {
            if wanted_cc.contains(&c.c_phone_cc()) {
                in_scope.push((c.c_custkey(), c.c_acctbal()));
            }
        })?;
    let mut has_orders: KeyTable<bool> = in_scope.iter().map(|(c, _)| (*c, false)).collect();
    let (orders, ()) = fold::<Orders, ()>(exec, Scan(t.orders), |(), o| {
        if let Some(has_orders) = has_orders.get_mut(&o.o_custkey()) {
            *has_orders = true;
        }
    })?;
    exec.charge_balanced(customers + orders, 1.0)?;
    let positive: Vec<u64> = (in_scope.iter().map(|(_, balance)| *balance))
        .filter(|&balance| balance > 0)
        .collect();
    let avg = if positive.is_empty() {
        0.0
    } else {
        positive.iter().map(|&b| b as f64).sum::<f64>() / positive.len() as f64
    };
    exec.charge_coordinator(in_scope.len() as u64, 0.2);
    Ok(in_scope
        .iter()
        .filter(|(customer, balance)| *balance as f64 > avg && !has_orders[customer])
        .map(|(_, balance)| money(*balance))
        .sum())
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
