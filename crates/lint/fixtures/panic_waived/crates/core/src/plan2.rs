fn f(v: Option<u32>) -> u32 {
    // dhlint: allow(panic) — fixture invariant: caller always passes Some
    v.unwrap()
}
