fn f(live: &dynahash_lsm::Live) {
    dynahash_lsm::from_another_crate();
    live.touch();
}
