#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::sync::Mutex;

struct S {
    inner: Mutex<u32>,
}
