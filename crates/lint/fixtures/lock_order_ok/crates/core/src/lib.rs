use std::sync::Mutex;

struct S {
    inner: Mutex<u32>,
}
