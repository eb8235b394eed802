#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

fn f(live: &dynahash_lsm::Live) {
    dynahash_lsm::from_another_crate();
    live.touch();
}
