use dynahash_lsm::BucketId;

fn f(b: BucketId) -> BucketId {
    b
}
