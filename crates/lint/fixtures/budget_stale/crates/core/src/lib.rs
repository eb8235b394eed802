#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub fn f(v: Option<u32>) -> u32 {
    #[expect(clippy::expect_used, reason = "fixture invariant one")]
    let a = v.expect("one");
    a
}
