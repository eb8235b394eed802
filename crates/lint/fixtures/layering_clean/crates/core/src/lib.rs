#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use dynahash_lsm::BucketId;

fn f(b: BucketId) -> BucketId {
    b
}
