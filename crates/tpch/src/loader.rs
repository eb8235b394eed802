//! Loading the TPC-H database into a cluster.
//!
//! The loader creates the eight TPC-H datasets with the rebalancing scheme
//! under evaluation and the two secondary indexes the paper builds
//! (Section VI-A): a LineItem index led by `l_shipdate` and an Orders index
//! led by `o_orderdate`, both enabling index-only plans for date-range
//! queries. It then ingests the generated data through data feeds.

use dynahash_cluster::{
    Cluster, ClusterError, DatasetId, DatasetSpec, IngestReport, SecondaryIndexDef,
};
use dynahash_core::Scheme;
use dynahash_lsm::entry::Key;
use dynahash_lsm::Bytes;

use crate::generator::{TpchData, TpchScale};
use crate::schema::{field_extractor, Table, L_SHIPDATE_FIELD, O_ORDERDATE_FIELD};

/// The dataset ids of the loaded TPC-H tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpchTables {
    /// LINEITEM dataset.
    pub lineitem: DatasetId,
    /// ORDERS dataset.
    pub orders: DatasetId,
    /// CUSTOMER dataset.
    pub customer: DatasetId,
    /// PART dataset.
    pub part: DatasetId,
    /// SUPPLIER dataset.
    pub supplier: DatasetId,
    /// PARTSUPP dataset.
    pub partsupp: DatasetId,
    /// NATION dataset.
    pub nation: DatasetId,
    /// REGION dataset.
    pub region: DatasetId,
}

/// Name of the LineItem covering index from the paper.
pub const LINEITEM_INDEX: &str = "idx_lineitem_shipdate";
/// Name of the Orders covering index from the paper.
pub const ORDERS_INDEX: &str = "idx_orders_orderdate";

/// The eight tables in creation order (so lineitem is dataset 1 and region
/// dataset 8), each with the paper's index on it, if any: its name and the
/// field it is led by.
const TABLES: [(&str, Option<(&str, usize)>); 8] = [
    ("lineitem", Some((LINEITEM_INDEX, L_SHIPDATE_FIELD))),
    ("orders", Some((ORDERS_INDEX, O_ORDERDATE_FIELD))),
    ("customer", None),
    ("part", None),
    ("supplier", None),
    ("partsupp", None),
    ("nation", None),
    ("region", None),
];

/// Creates the TPC-H datasets under the given scheme, generates data at the
/// given scale, and ingests it. Returns the table handles, the generated
/// data (for query verification), and the combined ingestion report.
pub fn load_tpch(
    cluster: &mut Cluster,
    scheme: Scheme,
    scale: TpchScale,
) -> Result<(TpchTables, TpchData, IngestReport), ClusterError> {
    let data = TpchData::generate(scale);
    let mut ids = [0; TABLES.len()];
    for (id, (name, index)) in ids.iter_mut().zip(TABLES) {
        let mut spec = DatasetSpec::new(name, scheme).with_memtable_budget(64 * 1024);
        if let Some((index, field)) = index {
            spec = spec.with_secondary_index(SecondaryIndexDef::new(index, field_extractor(field)));
        }
        *id = cluster.create_dataset(spec)?;
    }
    let [lineitem, orders, customer, part, supplier, partsupp, nation, region] = ids;
    let tables = TpchTables {
        lineitem,
        orders,
        customer,
        part,
        supplier,
        partsupp,
        nation,
        region,
    };

    // Each table is fed through its own client session — the sanctioned
    // data path: the feed routes from the session's cached directory
    // snapshot and participates in the stale-directory redirect protocol.
    let d = &data;
    let mut report = feed(cluster, region, &d.region)?;
    report = report.merge(&feed(cluster, nation, &d.nation)?);
    report = report.merge(&feed(cluster, supplier, &d.supplier)?);
    report = report.merge(&feed(cluster, customer, &d.customer)?);
    report = report.merge(&feed(cluster, part, &d.part)?);
    report = report.merge(&feed(cluster, partsupp, &d.partsupp)?);
    report = report.merge(&feed(cluster, orders, &d.orders)?);
    report = report.merge(&feed(cluster, lineitem, &d.lineitem)?);
    Ok((tables, data, report))
}

/// Ingests one table's rows through a fresh session on `dataset`.
fn feed<T: Table>(
    cluster: &mut Cluster,
    dataset: DatasetId,
    rows: &[T],
) -> Result<IngestReport, ClusterError> {
    let mut session = cluster.session(dataset)?;
    session.ingest(cluster, rows.iter().map(T::record))
}

/// Converts LineItem rows into (key, payload) pairs for ingestion (used for
/// concurrent-write workloads during rebalancing).
pub fn lineitem_records(rows: &[crate::schema::LineItem]) -> Vec<(Key, Bytes)> {
    rows.iter().map(Table::record).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_small_tpch_under_dynahash() {
        let mut cluster = Cluster::new(2);
        let scheme = Scheme::dynahash(64 * 1024, 8);
        let (tables, data, report) = load_tpch(&mut cluster, scheme, TpchScale::tiny()).unwrap();
        assert_eq!(report.records as usize, data.total_rows());
        assert_eq!(
            cluster.dataset_len(tables.lineitem).unwrap(),
            data.lineitem.len()
        );
        assert_eq!(
            cluster.dataset_len(tables.orders).unwrap(),
            data.orders.len()
        );
        assert_eq!(cluster.dataset_len(tables.nation).unwrap(), 25);
        cluster.check_dataset_consistency(tables.lineitem).unwrap();
        cluster.check_dataset_consistency(tables.orders).unwrap();
        assert!(report.elapsed.as_secs_f64() > 0.0);
    }

    #[test]
    fn load_under_hashing_scheme() {
        let mut cluster = Cluster::new(2);
        let (tables, data, _) =
            load_tpch(&mut cluster, Scheme::Hashing, TpchScale::tiny()).unwrap();
        assert_eq!(
            cluster.dataset_len(tables.lineitem).unwrap(),
            data.lineitem.len()
        );
        cluster.check_dataset_consistency(tables.lineitem).unwrap();
    }

    #[test]
    fn lineitem_records_roundtrip_keys() {
        let data = TpchData::generate(TpchScale::tiny());
        let recs = lineitem_records(&data.lineitem[..10]);
        assert_eq!(recs.len(), 10);
        assert_eq!(recs[0].0, data.lineitem[0].primary_key());
    }
}
