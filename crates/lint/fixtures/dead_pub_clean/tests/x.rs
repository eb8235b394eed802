#[test]
fn t() {
    dynahash_lsm::from_an_integration_test();
    let _ = std::mem::size_of::<dynahash_lsm::Dead>();
}
