//! The TPC-H schema as fixed-layout binary records.
//!
//! Every table row is encoded as a sequence of big-endian `u64` fields so
//! that secondary-index extractors can pull a field out of the payload by
//! offset without a full decode. Monetary values are stored in cents and
//! dates as days since 1992-01-01 (the TPC-H epoch).

use dynahash_lsm::entry::Key;
use dynahash_lsm::Bytes;

/// Reads field `idx` (a big-endian u64) from an encoded payload.
pub fn field_u64(payload: &[u8], idx: usize) -> Option<u64> {
    let field = payload.get(idx * 8..idx * 8 + 8)?;
    Some(u64::from_be_bytes(field.try_into().ok()?))
}

fn encode_fields(fields: &[u64]) -> Bytes {
    let mut v = Vec::with_capacity(fields.len() * 8);
    for f in fields {
        v.extend_from_slice(&f.to_be_bytes());
    }
    Bytes::from(v)
}

/// Builds a secondary-index extractor that returns field `idx` as the key.
pub fn field_extractor(idx: usize) -> impl Fn(&[u8]) -> Option<Key> + Send + Sync + 'static {
    move |payload: &[u8]| field_u64(payload, idx).map(Key::from_u64)
}

/// A TPC-H table: ties a record type to the zero-copy view of its payloads,
/// so a query program can be generic over the table it folds.
pub trait Table {
    /// The view of one encoded row, borrowed from the payload.
    type Row<'a>: Copy;

    /// Views `payload` as a row; `None` if it is too short to be one.
    fn row(payload: &[u8]) -> Option<Self::Row<'_>>;
}

macro_rules! table_record {
    (
        $(#[$meta:meta])*
        $name:ident / $row:ident {
            $( $(#[$fmeta:meta])* $field:ident : $fidx:expr ),+ $(,)?
        }
        key = |$slf:ident| $key:expr;
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $name {
            $( $(#[$fmeta])* pub $field: u64, )+
        }

        #[doc = concat!("A row of [`", stringify!($name), "`] read in place: a view of the encoded")]
        /// payload with one accessor per field, each a load from a fixed offset.
        #[derive(Debug, Clone, Copy)]
        pub struct $row<'a>(&'a [u8; $name::NUM_FIELDS * 8]);

        impl<'a> $row<'a> {
            /// Views a payload produced by the record's `encode`; `None` if
            /// it is too short.
            pub fn new(payload: &'a [u8]) -> Option<Self> {
                Some($row(payload.get(..$name::NUM_FIELDS * 8)?.try_into().ok()?))
            }

            $(
                $(#[$fmeta])*
                pub fn $field(&self) -> u64 {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(&self.0[$fidx * 8..$fidx * 8 + 8]);
                    u64::from_be_bytes(b)
                }
            )+
        }

        impl Table for $name {
            type Row<'a> = $row<'a>;

            fn row(payload: &[u8]) -> Option<$row<'_>> {
                $row::new(payload)
            }
        }

        impl $name {
            /// Encodes the record into its fixed-layout binary payload.
            pub fn encode(&self) -> Bytes {
                let mut fields = vec![0u64; Self::NUM_FIELDS];
                $( fields[$fidx] = self.$field; )+
                encode_fields(&fields)
            }

            /// Decodes a payload produced by [`Self::encode`].
            pub fn decode(payload: &[u8]) -> Option<Self> {
                let row = $row::new(payload)?;
                Some(Self {
                    $( $field: row.$field(), )+
                })
            }

            /// The primary key of the record.
            pub fn primary_key(&self) -> Key {
                let $slf = self;
                $key
            }

            /// Number of u64 fields in the encoding.
            pub const NUM_FIELDS: usize = {
                let mut max = 0;
                $( if $fidx + 1 > max { max = $fidx + 1; } )+
                max
            };
        }
    };
}

table_record! {
    /// The LINEITEM table (one row per order line).
    LineItem / LineItemRow {
        /// Order this line belongs to (FK to Orders).
        l_orderkey: 0,
        /// Line number within the order (1..=7).
        l_linenumber: 1,
        /// Part shipped (FK to Part).
        l_partkey: 2,
        /// Supplier (FK to Supplier).
        l_suppkey: 3,
        /// Quantity ordered (1..=50).
        l_quantity: 4,
        /// Extended price in cents.
        l_extendedprice: 5,
        /// Discount in percent (0..=10).
        l_discount: 6,
        /// Tax in percent (0..=8).
        l_tax: 7,
        /// Return flag (0=N, 1=R, 2=A).
        l_returnflag: 8,
        /// Line status (0=O, 1=F).
        l_linestatus: 9,
        /// Ship date, days since the TPC-H epoch.
        l_shipdate: 10,
        /// Commit date.
        l_commitdate: 11,
        /// Receipt date.
        l_receiptdate: 12,
        /// Ship mode (0..=6).
        l_shipmode: 13,
        /// Ship instruction (0..=3).
        l_shipinstruct: 14,
    }
    key = |s| Key::from_pair(s.l_orderkey, s.l_linenumber);
}

/// Field index of `l_shipdate` (used by the LineItem secondary index).
pub const L_SHIPDATE_FIELD: usize = 10;

table_record! {
    /// The ORDERS table.
    Orders / OrdersRow {
        /// Primary key.
        o_orderkey: 0,
        /// Customer (FK to Customer).
        o_custkey: 1,
        /// Order status (0=O, 1=F, 2=P).
        o_orderstatus: 2,
        /// Total price in cents.
        o_totalprice: 3,
        /// Order date, days since the epoch.
        o_orderdate: 4,
        /// Order priority (0..=4).
        o_orderpriority: 5,
        /// Ship priority.
        o_shippriority: 6,
        /// Clerk id.
        o_clerk: 7,
    }
    key = |s| Key::from_u64(s.o_orderkey);
}

/// Field index of `o_orderdate` (used by the Orders secondary index).
pub const O_ORDERDATE_FIELD: usize = 4;

table_record! {
    /// The CUSTOMER table.
    Customer / CustomerRow {
        /// Primary key.
        c_custkey: 0,
        /// Nation (FK to Nation).
        c_nationkey: 1,
        /// Market segment (0..=4).
        c_mktsegment: 2,
        /// Account balance in cents (offset by 100000 to stay unsigned).
        c_acctbal: 3,
        /// Phone country code (10..=34).
        c_phone_cc: 4,
    }
    key = |s| Key::from_u64(s.c_custkey);
}

table_record! {
    /// The PART table.
    Part / PartRow {
        /// Primary key.
        p_partkey: 0,
        /// Brand (0..=24).
        p_brand: 1,
        /// Type (0..=149).
        p_type: 2,
        /// Size (1..=50).
        p_size: 3,
        /// Container (0..=39).
        p_container: 4,
        /// Retail price in cents.
        p_retailprice: 5,
        /// Manufacturer (0..=4).
        p_mfgr: 6,
    }
    key = |s| Key::from_u64(s.p_partkey);
}

table_record! {
    /// The SUPPLIER table.
    Supplier / SupplierRow {
        /// Primary key.
        s_suppkey: 0,
        /// Nation (FK to Nation).
        s_nationkey: 1,
        /// Account balance in cents (offset by 100000).
        s_acctbal: 2,
        /// 1 if the supplier's comment matches the q16/q21 complaint filter.
        s_complaint: 3,
    }
    key = |s| Key::from_u64(s.s_suppkey);
}

table_record! {
    /// The PARTSUPP table.
    PartSupp / PartSuppRow {
        /// Part (FK, part of the primary key).
        ps_partkey: 0,
        /// Supplier (FK, part of the primary key).
        ps_suppkey: 1,
        /// Available quantity.
        ps_availqty: 2,
        /// Supply cost in cents.
        ps_supplycost: 3,
    }
    key = |s| Key::from_pair(s.ps_partkey, s.ps_suppkey);
}

table_record! {
    /// The NATION table (25 rows).
    Nation / NationRow {
        /// Primary key (0..=24).
        n_nationkey: 0,
        /// Region (FK to Region).
        n_regionkey: 1,
    }
    key = |s| Key::from_u64(s.n_nationkey);
}

table_record! {
    /// The REGION table (5 rows).
    Region / RegionRow {
        /// Primary key (0..=4).
        r_regionkey: 0,
    }
    key = |s| Key::from_u64(s.r_regionkey);
}

/// Number of days in the TPC-H date range (1992-01-01 .. 1998-12-31).
pub const DATE_RANGE_DAYS: u64 = 2556;

/// Converts a (year, day-of-year) pair into days since the TPC-H epoch.
pub fn date(year: u64, day_of_year: u64) -> u64 {
    (year.saturating_sub(1992)) * 365 + day_of_year.min(364)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineitem_roundtrip() {
        let li = LineItem {
            l_orderkey: 42,
            l_linenumber: 3,
            l_partkey: 17,
            l_suppkey: 5,
            l_quantity: 30,
            l_extendedprice: 123_456,
            l_discount: 5,
            l_tax: 2,
            l_returnflag: 1,
            l_linestatus: 0,
            l_shipdate: date(1995, 100),
            l_commitdate: date(1995, 90),
            l_receiptdate: date(1995, 110),
            l_shipmode: 2,
            l_shipinstruct: 1,
        };
        let enc = li.encode();
        assert_eq!(enc.len(), LineItem::NUM_FIELDS * 8);
        assert_eq!(LineItem::decode(&enc).unwrap(), li);
        let row = LineItem::row(&enc).unwrap();
        assert_eq!((row.l_orderkey(), row.l_shipinstruct()), (42, 1));
        assert_eq!(row.l_shipdate(), li.l_shipdate);
        assert!(LineItemRow::new(&enc[..enc.len() - 1]).is_none());
        assert_eq!(li.primary_key(), Key::from_pair(42, 3));
        assert_eq!(field_u64(&enc, L_SHIPDATE_FIELD).unwrap(), date(1995, 100));
    }

    #[test]
    fn orders_roundtrip_and_extractor() {
        let o = Orders {
            o_orderkey: 7,
            o_custkey: 3,
            o_orderstatus: 1,
            o_totalprice: 99999,
            o_orderdate: date(1997, 12),
            o_orderpriority: 2,
            o_shippriority: 0,
            o_clerk: 55,
        };
        let enc = o.encode();
        assert_eq!(Orders::decode(&enc).unwrap(), o);
        let ex = field_extractor(O_ORDERDATE_FIELD);
        assert_eq!(ex(&enc).unwrap(), Key::from_u64(date(1997, 12)));
    }

    #[test]
    fn small_tables_roundtrip() {
        let c = Customer {
            c_custkey: 1,
            c_nationkey: 7,
            c_mktsegment: 3,
            c_acctbal: 150_000,
            c_phone_cc: 27,
        };
        assert_eq!(Customer::decode(&c.encode()).unwrap(), c);
        let p = Part {
            p_partkey: 2,
            p_brand: 12,
            p_type: 55,
            p_size: 30,
            p_container: 9,
            p_retailprice: 90_000,
            p_mfgr: 1,
        };
        assert_eq!(Part::decode(&p.encode()).unwrap(), p);
        let s = Supplier {
            s_suppkey: 3,
            s_nationkey: 11,
            s_acctbal: 123,
            s_complaint: 1,
        };
        assert_eq!(Supplier::decode(&s.encode()).unwrap(), s);
        let ps = PartSupp {
            ps_partkey: 2,
            ps_suppkey: 3,
            ps_availqty: 100,
            ps_supplycost: 500,
        };
        assert_eq!(PartSupp::decode(&ps.encode()).unwrap(), ps);
        assert_eq!(ps.primary_key(), Key::from_pair(2, 3));
        let n = Nation {
            n_nationkey: 4,
            n_regionkey: 1,
        };
        assert_eq!(Nation::decode(&n.encode()).unwrap(), n);
        let r = Region { r_regionkey: 4 };
        assert_eq!(Region::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn decode_rejects_short_payloads() {
        assert!(LineItem::decode(&[0u8; 8]).is_none());
        assert!(field_u64(&[1, 2, 3], 0).is_none());
    }

    #[test]
    fn dates_are_monotonic_over_years() {
        assert!(date(1992, 0) < date(1992, 100));
        assert!(date(1992, 364) < date(1993, 0));
        assert!(date(1998, 364) < DATE_RANGE_DAYS + 365);
    }
}
