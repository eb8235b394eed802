#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub fn f(v: Option<u32>, w: Option<u32>) -> u32 {
    #[expect(clippy::expect_used, reason = "fixture invariant one")]
    let a = v.expect("one");
    #[expect(clippy::expect_used, reason = "fixture invariant two")]
    let b = w.expect("two");
    a + b
}
